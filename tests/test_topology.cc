/**
 * @file
 * Unit and property tests for torus and mesh topologies.
 */

#include <gtest/gtest.h>

#include "src/topology/topology.hh"

namespace crnet {
namespace {

TEST(Torus, NeighborsWrapAround)
{
    TorusTopology t(4, 2);
    // Node 3 = (3,0); +x wraps to (0,0) = 0.
    EXPECT_EQ(t.neighbor(3, makePort(0, Direction::Plus)), 0u);
    // Node 0 -x wraps to (3,0) = 3.
    EXPECT_EQ(t.neighbor(0, makePort(0, Direction::Minus)), 3u);
    // Node 0 -y wraps to (0,3) = 12.
    EXPECT_EQ(t.neighbor(0, makePort(1, Direction::Minus)), 12u);
}

TEST(Torus, NeighborSymmetry)
{
    TorusTopology t(5, 2);
    for (NodeId n = 0; n < t.numNodes(); ++n) {
        for (PortId p = 0; p < t.numPorts(); ++p) {
            const NodeId nbr = t.neighbor(n, p);
            ASSERT_NE(nbr, kInvalidNode);
            EXPECT_EQ(t.neighbor(nbr, oppositePort(p)), n);
        }
    }
}

TEST(Torus, DistanceUsesShorterWay)
{
    TorusTopology t(8, 2);
    // (0,0) to (7,0): one wrap hop, not 7.
    EXPECT_EQ(t.distance(0, 7), 1u);
    // (0,0) to (4,0): both ways are 4.
    EXPECT_EQ(t.distance(0, 4), 4u);
    // (0,0) to (3,2).
    EXPECT_EQ(t.distance(0, 3 + 2 * 8), 5u);
    EXPECT_EQ(t.distance(5, 5), 0u);
}

TEST(Torus, DimRouteBothWaysMinimalAtHalfway)
{
    TorusTopology t(8, 2);
    const DimRoute r = t.dimRoute(0, 4, 0);
    EXPECT_TRUE(r.plusMinimal);
    EXPECT_TRUE(r.minusMinimal);
    EXPECT_EQ(r.plusHops, 4u);
    EXPECT_EQ(r.minusHops, 4u);
}

TEST(Torus, DimRouteOneWayMinimalOtherwise)
{
    TorusTopology t(8, 2);
    const DimRoute r = t.dimRoute(0, 2, 0);
    EXPECT_TRUE(r.plusMinimal);
    EXPECT_FALSE(r.minusMinimal);
    EXPECT_EQ(r.plusHops, 2u);
    EXPECT_EQ(r.minusHops, 6u);

    const DimRoute r2 = t.dimRoute(0, 6, 0);
    EXPECT_FALSE(r2.plusMinimal);
    EXPECT_TRUE(r2.minusMinimal);
    EXPECT_EQ(r2.minusHops, 2u);
}

TEST(Torus, DatelineCrossings)
{
    TorusTopology t(4, 2);
    // Plus dateline: leaving x == k-1 in +x.
    EXPECT_TRUE(t.crossesDateline(3, makePort(0, Direction::Plus)));
    EXPECT_FALSE(t.crossesDateline(2, makePort(0, Direction::Plus)));
    // Minus dateline: leaving x == 0 in -x.
    EXPECT_TRUE(t.crossesDateline(0, makePort(0, Direction::Minus)));
    EXPECT_FALSE(t.crossesDateline(1, makePort(0, Direction::Minus)));
}

TEST(Torus, Diameter)
{
    EXPECT_EQ(TorusTopology(8, 2).diameter(), 8u);
    EXPECT_EQ(TorusTopology(4, 3).diameter(), 6u);
}

TEST(Mesh, BoundariesHaveNoNeighbors)
{
    MeshTopology m(4, 2);
    EXPECT_EQ(m.neighbor(3, makePort(0, Direction::Plus)),
              kInvalidNode);
    EXPECT_EQ(m.neighbor(0, makePort(0, Direction::Minus)),
              kInvalidNode);
    EXPECT_EQ(m.neighbor(0, makePort(1, Direction::Minus)),
              kInvalidNode);
    EXPECT_EQ(m.neighbor(5, makePort(0, Direction::Plus)), 6u);
}

TEST(Mesh, DistanceIsManhattan)
{
    MeshTopology m(8, 2);
    EXPECT_EQ(m.distance(0, 7), 7u);
    EXPECT_EQ(m.distance(0, 7 + 7 * 8), 14u);
}

TEST(Mesh, NoDatelines)
{
    MeshTopology m(4, 2);
    for (NodeId n = 0; n < m.numNodes(); ++n)
        for (PortId p = 0; p < m.numPorts(); ++p)
            EXPECT_FALSE(m.crossesDateline(n, p));
}

TEST(Mesh, Diameter)
{
    EXPECT_EQ(MeshTopology(8, 2).diameter(), 14u);
}

TEST(Topology, FactoryBuildsConfiguredKind)
{
    SimConfig cfg;
    cfg.topology = TopologyKind::Mesh;
    cfg.radixK = 4;
    cfg.dimensionsN = 2;
    auto t = makeTopology(cfg);
    EXPECT_EQ(t->kind(), TopologyKind::Mesh);
    EXPECT_EQ(t->numNodes(), 16u);
}

TEST(Topology, DistanceSymmetricOnTorus)
{
    TorusTopology t(6, 2);
    for (NodeId a = 0; a < t.numNodes(); a += 5)
        for (NodeId b = 0; b < t.numNodes(); b += 3)
            EXPECT_EQ(t.distance(a, b), t.distance(b, a));
}

TEST(Topology, TriangleInequalityViaNeighbors)
{
    // distance() must drop by exactly 1 along a minimal direction.
    TorusTopology t(5, 2);
    for (NodeId a = 0; a < t.numNodes(); ++a) {
        for (NodeId b = 0; b < t.numNodes(); ++b) {
            if (a == b)
                continue;
            const std::uint32_t d = t.distance(a, b);
            bool improved = false;
            for (std::uint32_t dim = 0; dim < t.dims(); ++dim) {
                const DimRoute r = t.dimRoute(a, b, dim);
                if (r.plusMinimal) {
                    const NodeId next =
                        t.neighbor(a, makePort(dim, Direction::Plus));
                    EXPECT_EQ(t.distance(next, b), d - 1);
                    improved = true;
                }
                if (r.minusMinimal) {
                    const NodeId next =
                        t.neighbor(a, makePort(dim, Direction::Minus));
                    EXPECT_EQ(t.distance(next, b), d - 1);
                    improved = true;
                }
            }
            EXPECT_TRUE(improved);
        }
    }
}

TEST(Topology, TinyRadixRejected)
{
    EXPECT_DEATH(TorusTopology(1, 2), "radix");
}

/**
 * The lookup tables against the coordinate formulas, evaluated here
 * independently: every node, port and destination of 1-3-D tori and
 * meshes with k = 2..8.
 */
void
expectTablesMatchFormulas(const Topology& t, bool wrap)
{
    const std::uint32_t k = t.radix();
    const std::uint32_t n = t.dims();
    for (NodeId id = 0; id < t.numNodes(); ++id) {
        const Coordinates c = toCoordinates(id, k, n);
        for (std::uint32_t d = 0; d < n; ++d)
            ASSERT_EQ(t.coord(id, d), c[d]) << id << " dim " << d;
        for (PortId p = 0; p < t.numPorts(); ++p) {
            const std::uint32_t d = portDim(p);
            Coordinates nc = c;
            NodeId want = kInvalidNode;
            if (portDir(p) == Direction::Plus) {
                if (wrap || c[d] + 1u < k) {
                    nc[d] = static_cast<std::uint16_t>((c[d] + 1) % k);
                    want = toNodeId(nc, k);
                }
            } else if (wrap || c[d] > 0) {
                nc[d] = static_cast<std::uint16_t>((c[d] + k - 1) % k);
                want = toNodeId(nc, k);
            }
            ASSERT_EQ(t.neighbor(id, p), want) << id << " port " << p;
            const bool dateline = wrap &&
                (portDir(p) == Direction::Plus ? c[d] == k - 1
                                               : c[d] == 0);
            ASSERT_EQ(t.crossesDateline(id, p), dateline);
        }
        for (NodeId to = 0; to < t.numNodes(); to += 3) {
            const Coordinates b = toCoordinates(to, k, n);
            for (std::uint32_t d = 0; d < n; ++d) {
                const DimRoute r = t.dimRoute(id, to, d);
                if (c[d] == b[d]) {
                    ASSERT_TRUE(r.done());
                    continue;
                }
                if (wrap) {
                    const std::uint32_t plus = (b[d] + k - c[d]) % k;
                    ASSERT_EQ(r.plusHops, plus);
                    ASSERT_EQ(r.minusHops, k - plus);
                    ASSERT_EQ(r.plusMinimal, plus <= k - plus);
                    ASSERT_EQ(r.minusMinimal, k - plus <= plus);
                } else {
                    ASSERT_EQ(r.plusMinimal, b[d] > c[d]);
                    ASSERT_EQ(r.minusMinimal, b[d] < c[d]);
                    ASSERT_EQ(r.plusHops + r.minusHops,
                              b[d] > c[d] ? b[d] - c[d] : c[d] - b[d]);
                }
            }
        }
    }
}

TEST(Topology, LookupTablesMatchCoordinateFormulas)
{
    for (std::uint32_t n = 1; n <= 3; ++n) {
        for (std::uint32_t k = 2; k <= 8; ++k) {
            SCOPED_TRACE(::testing::Message() << k << "-ary " << n);
            expectTablesMatchFormulas(TorusTopology(k, n), true);
            expectTablesMatchFormulas(MeshTopology(k, n), false);
        }
    }
}

TEST(Topology, NeighborRejectsNonNetworkPort)
{
    const TorusTopology t(4, 2);
    EXPECT_DEATH(t.neighbor(0, 4), "out of range");
}

} // namespace
} // namespace crnet
