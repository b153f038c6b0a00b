#include "src/topology/topology.hh"

#include "src/sim/log.hh"

namespace crnet {

MeshTopology::MeshTopology(std::uint32_t k, std::uint32_t n)
    : Topology(TopologyKind::Mesh, k, n)
{
    buildTables();
}

NodeId
MeshTopology::linkTarget(Coordinates c, PortId port) const
{
    const std::uint32_t d = portDim(port);
    if (portDir(port) == Direction::Plus) {
        if (c[d] == k_ - 1)
            return kInvalidNode;
        c[d] = static_cast<std::uint16_t>(c[d] + 1);
    } else {
        if (c[d] == 0)
            return kInvalidNode;
        c[d] = static_cast<std::uint16_t>(c[d] - 1);
    }
    return nodeId(c);
}

DimRoute
MeshTopology::dimRoute(NodeId from, NodeId to, std::uint32_t dim) const
{
    const std::uint32_t a = coord(from, dim);
    const std::uint32_t b = coord(to, dim);
    DimRoute r;
    if (a == b)
        return r;
    if (b > a) {
        r.plusMinimal = true;
        r.plusHops = b - a;
    } else {
        r.minusMinimal = true;
        r.minusHops = a - b;
    }
    return r;
}

std::uint32_t
MeshTopology::diameter() const
{
    return n_ * (k_ - 1);
}

} // namespace crnet
