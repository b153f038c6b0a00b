/**
 * @file
 * One heap block carved into typed arrays.
 *
 * A component pool lays out all of its per-node arrays in one block:
 * it calls `carve<T>(n)` for each array in a sizing pass (which
 * returns null), `allocate()`s once, then repeats the same calls to
 * get the constructed arrays. One block per pool keeps construction
 * at a constant allocation count.
 */

#ifndef CRNET_SIM_ARENA_HH
#define CRNET_SIM_ARENA_HH

#include <cstddef>
#include <memory>
#include <type_traits>

namespace crnet {

/** A fixed block of trivially destructible arrays. */
class Arena
{
  public:
    /**
     * Reserve `n` Ts (sizing pass: returns null), or construct them as
     * copies of `init` (after allocate(): returns the array).
     */
    template <typename T>
    T*
    carve(std::size_t n, const T& init = T{})
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "the arena never runs destructors");
        static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
        used_ = (used_ + alignof(T) - 1) / alignof(T) * alignof(T);
        T* p = nullptr;
        if (block_ != nullptr) {
            p = reinterpret_cast<T*>(block_.get() + used_);
            std::uninitialized_fill_n(p, n, init);
        }
        used_ += n * sizeof(T);
        return p;
    }

    /** End the sizing pass: allocate what it reserved. */
    void
    allocate()
    {
        block_.reset(new std::byte[used_]);
        size_ = used_;
        used_ = 0;
    }

    /** Bytes in the block. */
    std::size_t bytes() const { return size_; }

  private:
    std::unique_ptr<std::byte[]> block_;
    std::size_t used_ = 0;
    std::size_t size_ = 0;
};

} // namespace crnet

#endif // CRNET_SIM_ARENA_HH
