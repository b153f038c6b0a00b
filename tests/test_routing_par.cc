/**
 * @file
 * Unit and integration tests for planar-adaptive routing (2D mesh).
 */

#include <gtest/gtest.h>

#include "src/core/network.hh"
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

class ParTest : public ::testing::Test
{
  protected:
    ParTest()
        : topo(8, 2), faults(topo, 0.0, Rng(1)),
          par(topo, faults, 3), rng(5)
    {
    }

    NodeId
    at(std::uint16_t x, std::uint16_t y) const
    {
        return x + 8 * y;
    }

    MeshTopology topo;
    FaultModel faults;
    PlanarAdaptiveRouting par;
    Rng rng;
};

TEST_F(ParTest, IncreasingTrafficUsesXClass0AndYPlus)
{
    // (1,1) -> (4,4): dy > 0 => increasing network.
    CandidateBuffer out;
    par.candidates(at(1, 1), headTo(at(4, 4)), out, rng);
    ASSERT_EQ(out.size(), 2u);  // x+ on vc0, y+ on vc2.
    for (const Candidate& c : out) {
        if (portDim(c.port) == 0) {
            EXPECT_EQ(c.port, makePort(0, Direction::Plus));
            EXPECT_EQ(c.vc, 0u);
        } else {
            EXPECT_EQ(c.port, makePort(1, Direction::Plus));
            EXPECT_EQ(c.vc, 2u);
        }
    }
}

TEST_F(ParTest, DecreasingTrafficUsesXClass1AndYMinus)
{
    // (4,4) -> (1,1): dy < 0 => decreasing network.
    CandidateBuffer out;
    par.candidates(at(4, 4), headTo(at(1, 1)), out, rng);
    ASSERT_EQ(out.size(), 2u);
    for (const Candidate& c : out) {
        if (portDim(c.port) == 0) {
            EXPECT_EQ(c.port, makePort(0, Direction::Minus));
            EXPECT_EQ(c.vc, 1u);
        } else {
            EXPECT_EQ(c.port, makePort(1, Direction::Minus));
            EXPECT_EQ(c.vc, 2u);
        }
    }
}

TEST_F(ParTest, PureXTrafficRidesTheIncreasingNetwork)
{
    CandidateBuffer out;
    par.candidates(at(1, 3), headTo(at(6, 3)), out, rng);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].port, makePort(0, Direction::Plus));
    EXPECT_EQ(out[0].vc, 0u);
}

TEST_F(ParTest, ExtraVcsBecomeYLanes)
{
    PlanarAdaptiveRouting par5(topo, faults, 5);
    CandidateBuffer out;
    par5.candidates(at(1, 1), headTo(at(1, 5)), out, rng);
    ASSERT_EQ(out.size(), 3u);  // y+ on VCs 2,3,4.
    for (const Candidate& c : out) {
        EXPECT_EQ(c.port, makePort(1, Direction::Plus));
        EXPECT_GE(c.vc, 2u);
    }
}

TEST_F(ParTest, AllCandidatesMinimalEverywhere)
{
    for (NodeId src = 0; src < topo.numNodes(); src += 3) {
        for (NodeId dst = 0; dst < topo.numNodes(); dst += 5) {
            if (src == dst)
                continue;
            CandidateBuffer out;
            par.candidates(src, headTo(dst), out, rng);
            ASSERT_FALSE(out.empty());
            for (const Candidate& c : out) {
                const NodeId nxt = topo.neighbor(src, c.port);
                ASSERT_NE(nxt, kInvalidNode);
                EXPECT_EQ(topo.distance(nxt, dst),
                          topo.distance(src, dst) - 1);
            }
        }
    }
}

TEST(ParConstruction, RejectsTorus3dAndFewVcs)
{
    TorusTopology torus(4, 2);
    FaultModel tf(torus, 0.0, Rng(1));
    EXPECT_DEATH(PlanarAdaptiveRouting(torus, tf, 3), "2D meshes");

    MeshTopology m3(4, 3);
    FaultModel mf3(m3, 0.0, Rng(1));
    EXPECT_DEATH(PlanarAdaptiveRouting(m3, mf3, 3), "2D meshes");

    MeshTopology m2(4, 2);
    FaultModel mf2(m2, 0.0, Rng(1));
    EXPECT_DEATH(PlanarAdaptiveRouting(m2, mf2, 2), "3 VCs");
}

TEST(ParNetwork, NeverDeadlocksUnderStress)
{
    SimConfig cfg;
    cfg.topology = TopologyKind::Mesh;
    cfg.radixK = 8;
    cfg.dimensionsN = 2;
    cfg.routing = RoutingKind::PlanarAdaptive;
    cfg.protocol = ProtocolKind::None;
    cfg.numVcs = 3;
    cfg.injectionRate = 0.5;
    cfg.messageLength = 16;
    cfg.deadlockThreshold = 2000;
    cfg.seed = 9;
    Network net(cfg);
    for (Cycle i = 0; i < 15000; ++i) {
        net.tick();
        ASSERT_FALSE(net.deadlocked()) << "cycle " << net.now();
    }
    EXPECT_GT(net.stats().messagesDelivered.value(), 200u);
    EXPECT_EQ(net.stats().orderViolations.value(), 0u);
}

} // namespace
} // namespace crnet
