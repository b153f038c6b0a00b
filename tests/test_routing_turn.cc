/**
 * @file
 * Unit tests for turn-model routing (west-first, negative-first).
 */

#include <set>

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

std::set<PortId>
ports(const RoutingAlgorithm& algo, NodeId node, NodeId dst, Rng& rng)
{
    CandidateBuffer out;
    algo.candidates(node, headTo(dst), out, rng);
    std::set<PortId> p;
    for (const Candidate& c : out)
        p.insert(c.port);
    return p;
}

class TurnTest : public ::testing::Test
{
  protected:
    TurnTest()
        : topo(8, 2), faults(topo, 0.0, Rng(1)),
          wf(topo, faults, 1, TurnModelRouting::Variant::WestFirst),
          nf(topo, faults, 1,
             TurnModelRouting::Variant::NegativeFirst),
          rng(5)
    {
    }

    NodeId
    at(std::uint16_t x, std::uint16_t y) const
    {
        return x + 8 * y;
    }

    MeshTopology topo;
    FaultModel faults;
    TurnModelRouting wf;
    TurnModelRouting nf;
    Rng rng;
};

TEST_F(TurnTest, WestFirstGoesWestDeterministically)
{
    // From (5,5) to (2,2): west hops remain, so only x- is offered.
    const auto p = ports(wf, at(5, 5), at(2, 2), rng);
    ASSERT_EQ(p.size(), 1u);
    EXPECT_TRUE(p.count(makePort(0, Direction::Minus)));
}

TEST_F(TurnTest, WestFirstAdaptiveAfterWestDone)
{
    // From (2,5) to (5,2): no west hops; x+ and y- both offered.
    const auto p = ports(wf, at(2, 5), at(5, 2), rng);
    EXPECT_EQ(p.size(), 2u);
    EXPECT_TRUE(p.count(makePort(0, Direction::Plus)));
    EXPECT_TRUE(p.count(makePort(1, Direction::Minus)));
}

TEST_F(TurnTest, NegativeFirstDoesNegativesAdaptively)
{
    // From (5,5) to (2,2): both negatives offered.
    const auto p = ports(nf, at(5, 5), at(2, 2), rng);
    EXPECT_EQ(p.size(), 2u);
    EXPECT_TRUE(p.count(makePort(0, Direction::Minus)));
    EXPECT_TRUE(p.count(makePort(1, Direction::Minus)));
}

TEST_F(TurnTest, NegativeFirstHoldsPositivesUntilNegativesDone)
{
    // From (5,2) to (2,5): x- pending, so y+ must NOT be offered yet.
    const auto p = ports(nf, at(5, 2), at(2, 5), rng);
    ASSERT_EQ(p.size(), 1u);
    EXPECT_TRUE(p.count(makePort(0, Direction::Minus)));
}

TEST_F(TurnTest, NegativeFirstPositivePhaseAdaptive)
{
    // From (2,2) to (5,5): both positives offered.
    const auto p = ports(nf, at(2, 2), at(5, 5), rng);
    EXPECT_EQ(p.size(), 2u);
    EXPECT_TRUE(p.count(makePort(0, Direction::Plus)));
    EXPECT_TRUE(p.count(makePort(1, Direction::Plus)));
}

TEST_F(TurnTest, AllCandidatesAreMinimalEverywhere)
{
    for (NodeId src = 0; src < topo.numNodes(); src += 3) {
        for (NodeId dst = 0; dst < topo.numNodes(); dst += 5) {
            if (src == dst)
                continue;
            for (const RoutingAlgorithm* algo :
                 {static_cast<const RoutingAlgorithm*>(&wf),
                  static_cast<const RoutingAlgorithm*>(&nf)}) {
                CandidateBuffer out;
                algo->candidates(src, headTo(dst), out, rng);
                ASSERT_FALSE(out.empty())
                    << "no route " << src << "->" << dst;
                for (const Candidate& c : out) {
                    const NodeId nxt = topo.neighbor(src, c.port);
                    ASSERT_NE(nxt, kInvalidNode);
                    EXPECT_EQ(topo.distance(nxt, dst),
                              topo.distance(src, dst) - 1);
                }
            }
        }
    }
}

TEST_F(TurnTest, ProhibitedTurnsNeverAppear)
{
    // West-first: after any non-west position, x- must never be
    // offered (that would be a turn into west).
    for (NodeId src = 0; src < topo.numNodes(); ++src) {
        for (NodeId dst = 0; dst < topo.numNodes(); ++dst) {
            if (src == dst)
                continue;
            const auto p = ports(wf, src, dst, rng);
            const DimRoute x = topo.dimRoute(src, dst, 0);
            if (x.minusMinimal) {
                // West pending: west must be the only offer.
                EXPECT_EQ(p.size(), 1u);
                EXPECT_TRUE(p.count(makePort(0, Direction::Minus)));
            } else {
                EXPECT_FALSE(p.count(makePort(0, Direction::Minus)));
            }
        }
    }
}

TEST_F(TurnTest, SelfDeadlockFree)
{
    EXPECT_TRUE(wf.selfDeadlockFree());
    EXPECT_TRUE(nf.selfDeadlockFree());
}

TEST(TurnModel, RejectsTorus)
{
    TorusTopology torus(4, 2);
    FaultModel faults(torus, 0.0, Rng(1));
    EXPECT_DEATH(TurnModelRouting(torus, faults, 1,
                                  TurnModelRouting::Variant::WestFirst),
                 "meshes");
}

TEST(TurnModel, Rejects3D)
{
    MeshTopology m3(4, 3);
    FaultModel faults(m3, 0.0, Rng(1));
    EXPECT_DEATH(TurnModelRouting(m3, faults, 1,
                                  TurnModelRouting::Variant::WestFirst),
                 "2D");
}

} // namespace
} // namespace crnet
