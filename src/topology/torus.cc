#include "src/topology/topology.hh"

#include "src/sim/log.hh"

namespace crnet {

Topology::Topology(TopologyKind kind, std::uint32_t k, std::uint32_t n)
    : kind_(kind), k_(k), n_(n)
{
    if (k < 2)
        fatal("topology radix must be >= 2");
    if (n < 1 || n > kMaxDims)
        fatal("topology dimensionality must be in [1, ", kMaxDims, "]");
    std::uint64_t nodes = 1;
    for (std::uint32_t d = 0; d < n; ++d)
        nodes *= k;
    if (nodes > (1ULL << 24))
        fatal("topology too large: ", nodes, " nodes");
    numNodes_ = static_cast<NodeId>(nodes);
}

void
Topology::buildTables()
{
    const PortId ports = numPorts();
    coords_.resize(static_cast<std::size_t>(numNodes_) * n_);
    neighbors_.resize(static_cast<std::size_t>(numNodes_) * ports);
    // Walk the nodes in id order with an odometer over the
    // coordinates (dimension 0 fastest), so building divides nothing.
    Coordinates c;
    c.n = static_cast<std::uint8_t>(n_);
    for (NodeId id = 0; id < numNodes_; ++id) {
        for (std::uint32_t d = 0; d < n_; ++d)
            coords_[static_cast<std::size_t>(id) * n_ + d] = c[d];
        for (PortId p = 0; p < ports; ++p)
            neighbors_[static_cast<std::size_t>(id) * ports + p] =
                linkTarget(c, p);
        for (std::uint32_t d = 0; d < n_ && ++c[d] == k_; ++d)
            c[d] = 0;
    }
}

std::uint32_t
Topology::distance(NodeId from, NodeId to) const
{
    std::uint32_t hops = 0;
    for (std::uint32_t d = 0; d < n_; ++d) {
        const DimRoute r = dimRoute(from, to, d);
        if (r.plusMinimal)
            hops += r.plusHops;
        else if (r.minusMinimal)
            hops += r.minusHops;
    }
    return hops;
}

TorusTopology::TorusTopology(std::uint32_t k, std::uint32_t n)
    : Topology(TopologyKind::Torus, k, n)
{
    buildTables();
}

NodeId
TorusTopology::linkTarget(Coordinates c, PortId port) const
{
    const std::uint32_t d = portDim(port);
    if (portDir(port) == Direction::Plus)
        c[d] = static_cast<std::uint16_t>(c[d] + 1u == k_ ? 0 : c[d] + 1);
    else
        c[d] = static_cast<std::uint16_t>(c[d] == 0 ? k_ - 1 : c[d] - 1);
    return nodeId(c);
}

DimRoute
TorusTopology::dimRoute(NodeId from, NodeId to, std::uint32_t dim) const
{
    const std::uint32_t a = coord(from, dim);
    const std::uint32_t b = coord(to, dim);
    DimRoute r;
    if (a == b)
        return r;
    const std::uint32_t plus = b > a ? b - a : b + k_ - a;
    const std::uint32_t minus = k_ - plus;
    r.plusHops = plus;
    r.minusHops = minus;
    r.plusMinimal = plus <= minus;
    r.minusMinimal = minus <= plus;
    return r;
}

bool
TorusTopology::crossesDateline(NodeId node, PortId port) const
{
    const std::uint32_t c = coord(node, portDim(port));
    if (portDir(port) == Direction::Plus)
        return c == k_ - 1;
    return c == 0;
}

std::uint32_t
TorusTopology::diameter() const
{
    return n_ * (k_ / 2);
}

std::unique_ptr<Topology>
makeTopology(const SimConfig& cfg)
{
    switch (cfg.topology) {
      case TopologyKind::Torus:
        return std::make_unique<TorusTopology>(cfg.radixK,
                                               cfg.dimensionsN);
      case TopologyKind::Mesh:
        return std::make_unique<MeshTopology>(cfg.radixK,
                                              cfg.dimensionsN);
    }
    panic("bad TopologyKind in makeTopology");
}

} // namespace crnet
