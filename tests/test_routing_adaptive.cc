/**
 * @file
 * Unit tests for the fully adaptive minimal routing relation (CR's
 * routing function), including misroute extensions.
 */

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "src/routing/routing.hh"
#include "tests/candidate_buffer.hh"

namespace crnet {
namespace {

Flit
headTo(NodeId dst, std::uint8_t misroute_budget = 0)
{
    Flit f;
    f.type = FlitType::Head;
    f.msg = 1;
    f.dst = dst;
    f.misrouteBudget = misroute_budget;
    return f;
}

class AdaptiveTest : public ::testing::Test
{
  protected:
    AdaptiveTest()
        : topo(8, 2), faults(topo, 0.0, Rng(1)),
          algo(topo, faults, 2), rng(7)
    {
    }

    std::set<PortId>
    candidatePorts(NodeId node, const Flit& head)
    {
        CandidateBuffer out;
        algo.candidates(node, head, out, rng);
        std::set<PortId> ports;
        for (const Candidate& c : out)
            ports.insert(c.port);
        return ports;
    }

    TorusTopology topo;
    FaultModel faults;
    MinimalAdaptiveRouting algo;
    Rng rng;
};

TEST_F(AdaptiveTest, OffersEveryMinimalDirection)
{
    // 0 -> (2, 3): +x and +y are minimal.
    const auto ports = candidatePorts(0, headTo(2 + 3 * 8));
    EXPECT_EQ(ports.size(), 2u);
    EXPECT_TRUE(ports.count(makePort(0, Direction::Plus)));
    EXPECT_TRUE(ports.count(makePort(1, Direction::Plus)));
}

TEST_F(AdaptiveTest, HalfwayPointOffersBothWays)
{
    // 0 -> 4 in x: both x directions minimal.
    const auto ports = candidatePorts(0, headTo(4));
    EXPECT_EQ(ports.size(), 2u);
    EXPECT_TRUE(ports.count(makePort(0, Direction::Plus)));
    EXPECT_TRUE(ports.count(makePort(0, Direction::Minus)));
}

TEST_F(AdaptiveTest, EveryVcIsOffered)
{
    CandidateBuffer out;
    algo.candidates(0, headTo(1), out, rng);
    ASSERT_EQ(out.size(), 2u);  // 1 port x 2 VCs.
    std::set<VcId> vcs;
    for (const Candidate& c : out)
        vcs.insert(c.vc);
    EXPECT_EQ(vcs.size(), 2u);
}

TEST_F(AdaptiveTest, CandidatesAreAllMinimal)
{
    for (NodeId src = 0; src < topo.numNodes(); src += 5) {
        for (NodeId dst = 0; dst < topo.numNodes(); dst += 3) {
            if (src == dst)
                continue;
            const Flit h = headTo(dst);
            CandidateBuffer out;
            algo.candidates(src, h, out, rng);
            ASSERT_FALSE(out.empty());
            const std::uint32_t d = topo.distance(src, dst);
            for (const Candidate& c : out) {
                EXPECT_FALSE(c.misroute);
                const NodeId next = topo.neighbor(src, c.port);
                EXPECT_EQ(topo.distance(next, dst), d - 1)
                    << "non-minimal candidate " << c.port;
            }
        }
    }
}

TEST_F(AdaptiveTest, OrderIsRandomizedAcrossCalls)
{
    // With 2 ports x 2 VCs = 4 candidates, the first entry should not
    // always be identical over many shuffles.
    const Flit h = headTo(2 + 3 * 8);
    std::set<std::pair<PortId, VcId>> firsts;
    for (int i = 0; i < 64; ++i) {
        CandidateBuffer out;
        algo.candidates(0, h, out, rng);
        firsts.insert({out[0].port, out[0].vc});
    }
    EXPECT_GT(firsts.size(), 1u);
}

TEST_F(AdaptiveTest, DeadLinksAreExcluded)
{
    faults.killDirectedLink(0, makePort(0, Direction::Plus));
    const auto ports = candidatePorts(0, headTo(2 + 3 * 8));
    EXPECT_EQ(ports.size(), 1u);
    EXPECT_TRUE(ports.count(makePort(1, Direction::Plus)));
}

TEST_F(AdaptiveTest, AllMinimalLinksDeadMeansNoCandidates)
{
    faults.killDirectedLink(0, makePort(0, Direction::Plus));
    faults.killDirectedLink(0, makePort(1, Direction::Plus));
    const auto ports = candidatePorts(0, headTo(2 + 3 * 8));
    EXPECT_TRUE(ports.empty());
}

TEST_F(AdaptiveTest, MisrouteBudgetAddsNonMinimalAfterMinimal)
{
    CandidateBuffer out;
    algo.candidates(0, headTo(2, 2), out, rng);
    // Minimal: +x (2 VCs). Non-minimal: -x, +y, -y (2 VCs each).
    ASSERT_EQ(out.size(), 8u);
    EXPECT_FALSE(out[0].misroute);
    EXPECT_FALSE(out[1].misroute);
    for (std::size_t i = 2; i < out.size(); ++i)
        EXPECT_TRUE(out[i].misroute);
}

TEST_F(AdaptiveTest, MisrouteEscapesDeadMinimalLinks)
{
    faults.killDirectedLink(0, makePort(0, Direction::Plus));
    faults.killDirectedLink(0, makePort(0, Direction::Minus));
    CandidateBuffer out;
    algo.candidates(0, headTo(2, 2), out, rng);
    ASSERT_FALSE(out.empty());
    for (const Candidate& c : out) {
        EXPECT_TRUE(c.misroute);
        EXPECT_TRUE(faults.linkOk(0, c.port));
    }
}

TEST_F(AdaptiveTest, NotSelfDeadlockFree)
{
    EXPECT_FALSE(algo.selfDeadlockFree());
}

TEST(AdaptiveMesh, RespectsBoundaries)
{
    MeshTopology topo(4, 2);
    FaultModel faults(topo, 0.0, Rng(1));
    MinimalAdaptiveRouting algo(topo, faults, 1);
    Rng rng(3);
    // Corner 0 -> 15: +x, +y only; with misroute budget, only real
    // links may appear.
    Flit h;
    h.type = FlitType::Head;
    h.dst = 15;
    h.misrouteBudget = 2;
    CandidateBuffer out;
    algo.candidates(0, h, out, rng);
    for (const Candidate& c : out)
        EXPECT_NE(topo.neighbor(0, c.port), kInvalidNode);
}

} // namespace
} // namespace crnet
