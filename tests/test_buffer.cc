/**
 * @file
 * Unit tests for the flit ring buffer and the fixed-capacity list
 * that backs component outboxes.
 */

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "src/router/buffer.hh"
#include "src/sim/fixed_vec.hh"

namespace crnet {
namespace {

Flit
flitWithSeq(std::uint32_t seq)
{
    Flit f;
    f.msg = 1;
    f.seq = seq;
    return f;
}

/** A FlitBuffer bound to `depth` slots of local storage. */
struct LocalBuffer
{
    explicit LocalBuffer(std::size_t depth) : slots(depth)
    {
        buf.bind(slots.data(), depth);
    }

    std::vector<Flit> slots;
    FlitBuffer buf;
};

TEST(FlitBuffer, FifoOrder)
{
    LocalBuffer local(4);
    FlitBuffer& b = local.buf;
    for (std::uint32_t i = 0; i < 4; ++i)
        b.push(flitWithSeq(i));
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(b.pop().seq, i);
    EXPECT_TRUE(b.empty());
}

TEST(FlitBuffer, WrapsAroundRepeatedly)
{
    LocalBuffer local(3);
    FlitBuffer& b = local.buf;
    std::uint32_t next_push = 0, next_pop = 0;
    for (int round = 0; round < 50; ++round) {
        while (!b.full())
            b.push(flitWithSeq(next_push++));
        while (!b.empty())
            EXPECT_EQ(b.pop().seq, next_pop++);
    }
    EXPECT_EQ(next_push, next_pop);
}

TEST(FlitBuffer, CapacityAndCounts)
{
    LocalBuffer local(2);
    FlitBuffer& b = local.buf;
    EXPECT_EQ(b.capacity(), 2u);
    EXPECT_TRUE(b.empty());
    EXPECT_FALSE(b.full());
    b.push(flitWithSeq(0));
    EXPECT_EQ(b.size(), 1u);
    b.push(flitWithSeq(1));
    EXPECT_TRUE(b.full());
}

TEST(FlitBuffer, OverflowPanics)
{
    LocalBuffer local(1);
    FlitBuffer& b = local.buf;
    b.push(flitWithSeq(0));
    EXPECT_DEATH(b.push(flitWithSeq(1)), "overflow");
}

TEST(FlitBuffer, UnderflowPanics)
{
    LocalBuffer local(1);
    FlitBuffer& b = local.buf;
    EXPECT_DEATH(b.pop(), "empty");
    EXPECT_DEATH(b.front(), "empty");
}

TEST(FlitBuffer, PurgeDropsEverything)
{
    LocalBuffer local(4);
    FlitBuffer& b = local.buf;
    b.push(flitWithSeq(0));
    b.push(flitWithSeq(1));
    EXPECT_EQ(b.purge(), 2u);
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(b.purge(), 0u);
    // Still usable after purge.
    b.push(flitWithSeq(9));
    EXPECT_EQ(b.front().seq, 9u);
}

TEST(FlitBuffer, FrontMutableEditsInPlace)
{
    LocalBuffer local(2);
    FlitBuffer& b = local.buf;
    b.push(flitWithSeq(0));
    b.frontMutable().misrouteBudget = 3;
    EXPECT_EQ(b.front().misrouteBudget, 3u);
}

TEST(FlitBuffer, ZeroCapacityPanics)
{
    Flit slot;
    FlitBuffer b;
    EXPECT_DEATH(b.bind(&slot, 0), "capacity");
}

/** Checks a buffer against a reference FIFO of sequence numbers. */
void
expectSameQueue(const FlitBuffer& b, const std::deque<std::uint32_t>& ref)
{
    ASSERT_EQ(b.size(), ref.size());
    EXPECT_EQ(b.empty(), ref.empty());
    EXPECT_EQ(b.full(), ref.size() == b.capacity());
    for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(b.peek(i).seq, ref[i]) << "peek(" << i << ")";
    if (!ref.empty()) {
        EXPECT_EQ(b.front().seq, ref.front());
    }
}

/**
 * Drives `b` through fills, partial drains and purges so head and
 * tail cross the end of the ring at every offset.
 */
void
exerciseWrap(FlitBuffer& b)
{
    const std::size_t depth = b.capacity();
    std::deque<std::uint32_t> ref;
    std::uint32_t next = 0;
    for (std::uint32_t round = 0; round < 4 * depth + 3; ++round) {
        // Push up to (round % depth) + 1 flits, then pop all but
        // (round % 2) of them: the head advances by a varying step.
        const std::size_t pushes = round % depth + 1;
        for (std::size_t i = 0; i < pushes && !b.full(); ++i) {
            b.push(flitWithSeq(next));
            ref.push_back(next++);
            expectSameQueue(b, ref);
        }
        while (ref.size() > round % 2) {
            EXPECT_EQ(b.pop().seq, ref.front());
            ref.pop_front();
            expectSameQueue(b, ref);
        }
        if (round % 5 == 4) {
            EXPECT_EQ(b.purge(), ref.size());
            ref.clear();
            expectSameQueue(b, ref);
        }
    }
}

TEST(FlitBuffer, WrapMatchesReferenceFifoAtDepthsOneToFive)
{
    for (std::size_t depth = 1; depth <= 5; ++depth) {
        SCOPED_TRACE(depth);
        LocalBuffer local(depth);
        exerciseWrap(local.buf);

        // Rebinding an emptied buffer to another slice restarts the
        // ring at that slice's first slot.
        local.buf.purge();
        std::vector<Flit> other(depth);
        local.buf.bind(other.data(), depth);
        exerciseWrap(local.buf);
    }
}

TEST(FixedVec, KeepsOrderAndRecyclesItsSlice)
{
    std::uint32_t slots[3] = {};
    FixedVec<std::uint32_t> list(slots, 3);
    for (int round = 0; round < 2; ++round) {
        list.clear();
        EXPECT_TRUE(list.empty());
        for (std::uint32_t i = 0; i < 3; ++i)
            list.push_back(10 * i + round);
        ASSERT_EQ(list.size(), 3u);
        EXPECT_EQ(list.begin(), slots);  // Writes land in the slice.
        EXPECT_EQ(list[0], 0u + round);
        EXPECT_EQ(list.back(), 20u + round);
    }
}

TEST(FixedVec, PushPastCapacityPanics)
{
    // The capacity is a per-tick bound; exceeding it is a bug, never
    // a reason to grow.
    std::uint32_t slots[2] = {};
    FixedVec<std::uint32_t> list(slots, 2);
    list.push_back(1);
    list.push_back(2);
    EXPECT_DEATH(list.push_back(3), "FixedVec overflow: capacity 2");
}

} // namespace
} // namespace crnet
