/**
 * @file
 * A vector-like list over caller-owned storage of fixed capacity.
 *
 * Component outboxes and scratch lists have a hard per-tick bound (one
 * flit per output port, one credit per ejection channel, ...), so
 * their storage lives in a per-network pool sized once at
 * construction; a FixedVec is the component's window onto its slice.
 * It never allocates, and pushing past the bound panics: that would be
 * a broken per-tick invariant, not a reason to grow.
 */

#ifndef CRNET_SIM_FIXED_VEC_HH
#define CRNET_SIM_FIXED_VEC_HH

#include <cstddef>
#include <cstdint>

#include "src/sim/log.hh"

namespace crnet {

/** Bounded list of T in a caller-owned slice. */
template <typename T>
class FixedVec
{
  public:
    using value_type = T;

    /** Unbound list: capacity 0 until storage is attached. */
    FixedVec() = default;

    /** Bind to `cap` slots at `slots`; the slice must outlive this. */
    FixedVec(T* slots, std::size_t cap)
        : data_(slots), cap_(static_cast<std::uint32_t>(cap))
    {
    }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return cap_; }
    bool empty() const { return size_ == 0; }

    void clear() { size_ = 0; }

    void
    push_back(const T& v)
    {
        if (size_ == cap_)
            panic("FixedVec overflow: capacity ", cap_);
        data_[size_++] = v;
    }

    T& operator[](std::size_t i) { return data_[i]; }
    const T& operator[](std::size_t i) const { return data_[i]; }
    T& back() { return data_[size_ - 1]; }
    const T& back() const { return data_[size_ - 1]; }

    T* begin() { return data_; }
    T* end() { return data_ + size_; }
    const T* begin() const { return data_; }
    const T* end() const { return data_ + size_; }

  private:
    T* data_ = nullptr;
    std::uint32_t size_ = 0;
    std::uint32_t cap_ = 0;
};

} // namespace crnet

#endif // CRNET_SIM_FIXED_VEC_HH
