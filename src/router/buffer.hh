/**
 * @file
 * Fixed-capacity flit FIFO used for every virtual-channel buffer.
 *
 * A plain ring buffer: wormhole simulation enqueues/dequeues millions of
 * flits, so this avoids per-flit allocation entirely.
 *
 * The buffer never owns storage: `bind()` attaches a caller-owned slot
 * slice. The router and receiver pools pack every VC buffer of every
 * node into one contiguous flit array each, so the sharded hot path
 * walks cache-dense state (docs/PERFORMANCE.md); a test binds a local
 * array.
 *
 * Indices are 32-bit and wrap by compare-and-subtract (head + count
 * never exceeds twice the capacity), so no operation divides.
 */

#ifndef CRNET_ROUTER_BUFFER_HH
#define CRNET_ROUTER_BUFFER_HH

#include <cstddef>
#include <cstdint>
#include <limits>

#include "src/sim/log.hh"
#include "src/router/flit.hh"

namespace crnet {

/** Bounded FIFO of flits. */
class FlitBuffer
{
  public:
    /** Unbound buffer: capacity 0 until `bind()` attaches storage. */
    FlitBuffer() = default;

    /**
     * Attach caller-owned slot storage (`cap` > 0 flits). The slice
     * must outlive the buffer. Only valid on an empty buffer.
     */
    void
    bind(Flit* slots, std::size_t cap)
    {
        if (!slots)
            panic("FlitBuffer::bind needs storage with capacity > 0");
        if (count_ != 0)
            panic("FlitBuffer::bind on a non-empty buffer");
        cap_ = checkedCapacity(cap);
        slots_ = slots;
        head_ = 0;
    }

    std::size_t capacity() const { return cap_; }
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    bool full() const { return count_ == cap_; }

    /** Enqueue at the back; panics when full (flow control bug). */
    void
    push(const Flit& flit)
    {
        if (full())
            panic("FlitBuffer overflow (msg ", flit.msg, ", seq ",
                  flit.seq, ")");
        slots_[wrap(head_ + count_)] = flit;
        ++count_;
    }

    /** The oldest flit; panics when empty. */
    const Flit&
    front() const
    {
        if (empty())
            panic("FlitBuffer::front on empty buffer");
        return slots_[head_];
    }

    /** Mutable access to the oldest flit (header state updates). */
    Flit&
    frontMutable()
    {
        if (empty())
            panic("FlitBuffer::frontMutable on empty buffer");
        return slots_[head_];
    }

    /** Remove and return the oldest flit. */
    Flit
    pop()
    {
        if (empty())
            panic("FlitBuffer::pop on empty buffer");
        const Flit& f = slots_[head_];
        head_ = wrap(head_ + 1);
        --count_;
        return f;
    }

    /**
     * The i-th oldest buffered flit (0 = front); panics out of range.
     * Snapshot serialization walks the queue without disturbing it.
     */
    const Flit&
    peek(std::size_t i) const
    {
        if (i >= count_)
            panic("FlitBuffer::peek(", i, ") with ", count_, " buffered");
        return slots_[wrap(head_ + static_cast<std::uint32_t>(i))];
    }

    /** Drop all contents (kill-token purge); returns dropped count. */
    std::size_t
    purge()
    {
        const std::size_t dropped = count_;
        count_ = 0;
        head_ = 0;
        return dropped;
    }

  private:
    static std::uint32_t
    checkedCapacity(std::size_t cap)
    {
        if (cap == 0 || cap > std::numeric_limits<std::uint32_t>::max() / 2)
            panic("FlitBuffer capacity must be > 0 and fit 31 bits, got ",
                  cap);
        return static_cast<std::uint32_t>(cap);
    }

    /** Fold a slot index in [0, 2*cap) back into the ring. */
    std::uint32_t
    wrap(std::uint32_t i) const
    {
        return i >= cap_ ? i - cap_ : i;
    }

    Flit* slots_ = nullptr;  //!< The bound slot slice.
    std::uint32_t cap_ = 0;
    std::uint32_t head_ = 0;
    std::uint32_t count_ = 0;
};

} // namespace crnet

#endif // CRNET_ROUTER_BUFFER_HH
