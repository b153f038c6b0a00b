/**
 * @file
 * Unit tests for the flit ring buffer.
 */

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "src/router/buffer.hh"

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

TEST(FlitBuffer, FifoOrder)
{
    FlitBuffer b(4);
    for (std::uint32_t i = 0; i < 4; ++i)
        b.push(flitWithSeq(i));
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(b.pop().seq, i);
    EXPECT_TRUE(b.empty());
}

TEST(FlitBuffer, WrapsAroundRepeatedly)
{
    FlitBuffer b(3);
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
    FlitBuffer b(2);
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
    FlitBuffer b(1);
    b.push(flitWithSeq(0));
    EXPECT_DEATH(b.push(flitWithSeq(1)), "overflow");
}

TEST(FlitBuffer, UnderflowPanics)
{
    FlitBuffer b(1);
    EXPECT_DEATH(b.pop(), "empty");
    EXPECT_DEATH(b.front(), "empty");
}

TEST(FlitBuffer, PurgeDropsEverything)
{
    FlitBuffer b(4);
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
    FlitBuffer b(2);
    b.push(flitWithSeq(0));
    b.frontMutable().misrouteBudget = 3;
    EXPECT_EQ(b.front().misrouteBudget, 3u);
}

TEST(FlitBuffer, ZeroCapacityPanics)
{
    EXPECT_DEATH(FlitBuffer(0), "capacity");
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
        FlitBuffer owned(depth);
        exerciseWrap(owned);

        std::vector<Flit> slots(depth);
        FlitBuffer bound;
        bound.bind(slots.data(), depth);
        exerciseWrap(bound);
    }
}

} // namespace
} // namespace crnet
