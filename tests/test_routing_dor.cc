/**
 * @file
 * Unit tests for dimension-order routing and its dateline VC classes.
 */

#include <gtest/gtest.h>

#include "src/routing/routing.hh"
#include "tests/candidate_buffer.hh"

namespace crnet {
namespace {

Flit
headTo(NodeId dst)
{
    Flit f;
    f.type = FlitType::Head;
    f.msg = 1;
    f.dst = dst;
    return f;
}

class DorTorusTest : public ::testing::Test
{
  protected:
    DorTorusTest()
        : topo(8, 2), faults(topo, 0.0, Rng(1)),
          dor(topo, faults, 2), rng(2)
    {
    }

    TorusTopology topo;
    FaultModel faults;
    DorRouting dor;
    Rng rng;
};

TEST_F(DorTorusTest, CorrectsDimensionZeroFirst)
{
    // From 0 to (3, 2): must go +x first.
    const Flit h = headTo(3 + 2 * 8);
    EXPECT_EQ(dor.dorPort(0, h), makePort(0, Direction::Plus));
    // From (3, 0) to (3, 2): x done, go +y.
    EXPECT_EQ(dor.dorPort(3, h), makePort(1, Direction::Plus));
}

TEST_F(DorTorusTest, PicksShorterWayAround)
{
    EXPECT_EQ(dor.dorPort(0, headTo(6)), makePort(0, Direction::Minus));
    EXPECT_EQ(dor.dorPort(0, headTo(2)), makePort(0, Direction::Plus));
    // Tie (distance 4 each way) goes Plus.
    EXPECT_EQ(dor.dorPort(0, headTo(4)), makePort(0, Direction::Plus));
}

TEST_F(DorTorusTest, CandidatesFollowDatelineClasses)
{
    // 0 -> 2 in +x never crosses the dateline: class 1 (VC 1 of 2).
    CandidateBuffer out;
    dor.candidates(0, headTo(2), out, rng);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].port, makePort(0, Direction::Plus));
    EXPECT_EQ(out[0].vc, 1u);

    // 6 -> 1 in +x crosses 7->0 later: class 0 until the crossing.
    out.clear();
    dor.candidates(6, headTo(1), out, rng);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].vc, 0u);

    // At 7 the next +x hop is the dateline itself: class 1.
    out.clear();
    dor.candidates(7, headTo(1), out, rng);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].vc, 1u);

    // Past the dateline (at 0, heading to 1): class 1.
    out.clear();
    dor.candidates(0, headTo(1), out, rng);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].vc, 1u);
}

TEST_F(DorTorusTest, MinusDirectionDatelineSymmetric)
{
    // 1 -> 6 in -x crosses 0 -> 7 later: class 0 at node 1.
    CandidateBuffer out;
    dor.candidates(1, headTo(6), out, rng);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].port, makePort(0, Direction::Minus));
    EXPECT_EQ(out[0].vc, 0u);

    // At 0 the -x hop crosses: class 1.
    out.clear();
    dor.candidates(0, headTo(6), out, rng);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].vc, 1u);
}

TEST_F(DorTorusTest, DeadDorLinkYieldsNoCandidates)
{
    faults.killDirectedLink(0, makePort(0, Direction::Plus));
    CandidateBuffer out;
    dor.candidates(0, headTo(2), out, rng);
    EXPECT_TRUE(out.empty());
}

TEST_F(DorTorusTest, SelfDeadlockFreeWithTwoVcs)
{
    EXPECT_TRUE(dor.selfDeadlockFree());
    DorRouting one_vc(topo, faults, 1);
    EXPECT_FALSE(one_vc.selfDeadlockFree());
}

TEST(DorLanes, FourVcsSplitTwoPerClass)
{
    TorusTopology topo(8, 2);
    FaultModel faults(topo, 0.0, Rng(1));
    DorRouting dor(topo, faults, 4);
    Rng rng(3);
    CandidateBuffer out;
    // Never-crossing path: class 1 lanes are VCs {2, 3}.
    dor.candidates(0, [] {
        Flit f;
        f.type = FlitType::Head;
        f.dst = 2;
        return f;
    }(), out, rng);
    ASSERT_EQ(out.size(), 2u);
    for (const Candidate& c : out)
        EXPECT_TRUE(c.vc == 2 || c.vc == 3);
}

TEST(DorMesh, AllVcsAreLanes)
{
    MeshTopology topo(8, 2);
    FaultModel faults(topo, 0.0, Rng(1));
    DorRouting dor(topo, faults, 3);
    EXPECT_TRUE(dor.selfDeadlockFree());
    Rng rng(4);
    CandidateBuffer out;
    Flit h;
    h.type = FlitType::Head;
    h.dst = 5;
    dor.candidates(0, h, out, rng);
    EXPECT_EQ(out.size(), 3u);
}

TEST(DorMesh, NeverRoutesOffTheEdge)
{
    MeshTopology topo(4, 2);
    FaultModel faults(topo, 0.0, Rng(1));
    DorRouting dor(topo, faults, 1);
    Rng rng(5);
    for (NodeId src = 0; src < topo.numNodes(); ++src) {
        for (NodeId dst = 0; dst < topo.numNodes(); ++dst) {
            if (src == dst)
                continue;
            Flit h;
            h.type = FlitType::Head;
            h.dst = dst;
            CandidateBuffer out;
            dor.candidates(src, h, out, rng);
            ASSERT_EQ(out.size(), 1u);
            EXPECT_NE(topo.neighbor(src, out[0].port), kInvalidNode);
        }
    }
}

TEST(DorPath, FollowingDorReachesDestinationMinimally)
{
    TorusTopology topo(8, 2);
    FaultModel faults(topo, 0.0, Rng(1));
    DorRouting dor(topo, faults, 2);
    for (NodeId src = 0; src < topo.numNodes(); src += 7) {
        for (NodeId dst = 0; dst < topo.numNodes(); dst += 5) {
            if (src == dst)
                continue;
            Flit h;
            h.type = FlitType::Head;
            h.dst = dst;
            NodeId at = src;
            std::uint32_t hops = 0;
            while (at != dst) {
                const PortId p = dor.dorPort(at, h);
                at = topo.neighbor(at, p);
                ASSERT_LE(++hops, topo.distance(src, dst));
            }
            EXPECT_EQ(hops, topo.distance(src, dst));
        }
    }
}

} // namespace
} // namespace crnet
