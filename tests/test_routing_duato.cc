/**
 * @file
 * Unit tests for Duato's adaptive routing with escape channels.
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

class DuatoTorusTest : public ::testing::Test
{
  protected:
    DuatoTorusTest()
        : topo(8, 2), faults(topo, 0.0, Rng(1)),
          algo(topo, faults, 3), rng(7)
    {
    }

    TorusTopology topo;
    FaultModel faults;
    DuatoRouting algo;
    Rng rng;
};

TEST_F(DuatoTorusTest, TwoEscapeVcsOnTorus)
{
    EXPECT_EQ(algo.numEscapeVcs(), 2u);
    EXPECT_TRUE(algo.isEscapeVc(0));
    EXPECT_TRUE(algo.isEscapeVc(1));
    EXPECT_FALSE(algo.isEscapeVc(2));
}

TEST_F(DuatoTorusTest, AdaptiveFirstEscapeLast)
{
    CandidateBuffer out;
    algo.candidates(0, headTo(2 + 3 * 8), out, rng);
    // 2 minimal ports x 1 adaptive VC + 1 escape.
    ASSERT_EQ(out.size(), 3u);
    EXPECT_FALSE(out[0].escape);
    EXPECT_FALSE(out[1].escape);
    EXPECT_TRUE(out[2].escape);
    // Adaptive candidates use only non-escape VCs.
    EXPECT_GE(out[0].vc, algo.numEscapeVcs());
    EXPECT_GE(out[1].vc, algo.numEscapeVcs());
    // Escape candidate uses an escape VC on the DOR port.
    EXPECT_LT(out[2].vc, algo.numEscapeVcs());
    EXPECT_EQ(out[2].port, makePort(0, Direction::Plus));
}

TEST_F(DuatoTorusTest, EscapeVcFollowsDatelineClass)
{
    CandidateBuffer out;
    // Path 6 -> 1 (+x) crosses the dateline later: escape class 0.
    algo.candidates(6, headTo(1), out, rng);
    ASSERT_FALSE(out.empty());
    const Candidate esc0 = out.back();
    EXPECT_TRUE(esc0.escape);
    EXPECT_EQ(esc0.vc, 0u);

    out.clear();
    // At 7 the +x hop is the dateline: escape class 1.
    algo.candidates(7, headTo(1), out, rng);
    const Candidate esc1 = out.back();
    EXPECT_TRUE(esc1.escape);
    EXPECT_EQ(esc1.vc, 1u);
}

TEST_F(DuatoTorusTest, EscapeAlwaysPresentOnHealthyNetwork)
{
    for (NodeId src = 0; src < topo.numNodes(); src += 3) {
        for (NodeId dst = 0; dst < topo.numNodes(); dst += 7) {
            if (src == dst)
                continue;
            CandidateBuffer out;
            algo.candidates(src, headTo(dst), out, rng);
            ASSERT_FALSE(out.empty());
            EXPECT_TRUE(out.back().escape)
                << "escape missing from " << src << " to " << dst;
        }
    }
}

TEST_F(DuatoTorusTest, TooFewVcsIsFatal)
{
    EXPECT_DEATH(DuatoRouting(topo, faults, 2), "Duato");
}

TEST(DuatoMesh, OneEscapeVcSuffices)
{
    MeshTopology topo(4, 2);
    FaultModel faults(topo, 0.0, Rng(1));
    DuatoRouting algo(topo, faults, 2);
    EXPECT_EQ(algo.numEscapeVcs(), 1u);
    Rng rng(3);
    CandidateBuffer out;
    Flit h;
    h.type = FlitType::Head;
    h.dst = 15;
    algo.candidates(0, h, out, rng);
    ASSERT_FALSE(out.empty());
    EXPECT_TRUE(out.back().escape);
    EXPECT_EQ(out.back().vc, 0u);
}

TEST(DuatoMesh, SelfDeadlockFree)
{
    MeshTopology topo(4, 2);
    FaultModel faults(topo, 0.0, Rng(1));
    DuatoRouting algo(topo, faults, 2);
    EXPECT_TRUE(algo.selfDeadlockFree());
}

} // namespace
} // namespace crnet
