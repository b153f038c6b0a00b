/**
 * @file
 * Steady-state allocation audit: once a network has warmed up and
 * drained to quiescence, ticking it must perform ZERO heap
 * allocations under either scheduler. The hot-path containers (wave
 * buckets, router outboxes and nomination buckets, NIC scratch
 * vectors) are pre-reserved at construction and recycled, never
 * recreated. Live traffic still allocates in the exactly-once
 * bookkeeping (assemblies, seen-sequence sets, source queues) by
 * design; this test pins down the per-cycle engine overhead.
 *
 * Construction is audited too: a network's routers, injectors and
 * receivers live in node-ordered arrays and per-network pools, so
 * building one costs a constant number of allocations plus what each
 * node's traffic-sized containers start with.
 *
 * The counter instruments the global operator new/delete. gtest's own
 * machinery allocates too, so each counted window is exactly the
 * call between two counter reads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/core/network.hh"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

} // namespace

void*
operator new(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace crnet {
namespace {

SimConfig
steadyCfg(SchedulerKind sched)
{
    SimConfig cfg;
    cfg.radixK = 4;
    cfg.dimensionsN = 2;
    cfg.numVcs = 2;
    cfg.routing = RoutingKind::MinimalAdaptive;
    cfg.protocol = ProtocolKind::Cr;
    cfg.timeout = 8;
    cfg.injectionRate = 0.2;
    cfg.messageLength = 8;
    cfg.seed = 5;
    cfg.sched = sched;
    // Keep the periodic audit sweep (which builds an AuditSnapshot)
    // out of the measured window; per-event audit hooks still run.
    cfg.auditInterval = 1u << 20;
    return cfg;
}

void
expectZeroAllocSteadyState(SchedulerKind sched)
{
    Network net(steadyCfg(sched));

    // Warm up with live traffic so every never-shrink container has
    // seen its high-water mark, then drain to quiescence.
    net.run(2000);
    net.setTrafficEnabled(false);
    Cycle guard = 0;
    while (!net.quiescent() && guard++ < 50000)
        net.tick();
    ASSERT_TRUE(net.quiescent());
    EXPECT_GT(net.stats().messagesDelivered.value(), 0u);

    const std::uint64_t before =
        g_allocs.load(std::memory_order_relaxed);
    net.run(1000);
    const std::uint64_t after =
        g_allocs.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "steady-state cycle loop allocated under "
        << toString(sched);
}

TEST(AllocSteady, ActiveSchedulerTicksWithoutAllocating)
{
    expectZeroAllocSteadyState(SchedulerKind::Active);
}

TEST(AllocSteady, SweepSchedulerTicksWithoutAllocating)
{
    expectZeroAllocSteadyState(SchedulerKind::Sweep);
}

/** perfbench's torus256_sat geometry on a k-ary 2-cube. */
SimConfig
saturatedTorusCfg(std::uint32_t k)
{
    SimConfig cfg;
    cfg.topology = TopologyKind::Torus;
    cfg.radixK = k;
    cfg.dimensionsN = 2;
    cfg.numVcs = 2;
    cfg.bufferDepth = 2;
    cfg.routing = RoutingKind::MinimalAdaptive;
    cfg.protocol = ProtocolKind::Cr;
    cfg.pattern = TrafficPattern::Uniform;
    cfg.messageLength = 16;
    cfg.timeout = 8;
    cfg.injectionRate = 0.3;
    cfg.seed = 1;
    cfg.jobs = 1;
    cfg.shards = 1;
    return cfg;
}

/** Global operator new calls made by constructing one Network. */
std::uint64_t
constructionAllocs(const SimConfig& cfg)
{
    const std::uint64_t before =
        g_allocs.load(std::memory_order_relaxed);
    const Network net(cfg);
    return g_allocs.load(std::memory_order_relaxed) - before;
}

TEST(AllocConstruction, GrowsByAtMostTwoPerNode)
{
    // The only per-node allocations left are the source queue's: a
    // std::deque allocates its block map and first block up front.
    const std::uint64_t a16 = constructionAllocs(saturatedTorusCfg(4));
    const std::uint64_t a64 = constructionAllocs(saturatedTorusCfg(8));
    const std::uint64_t a256 =
        constructionAllocs(saturatedTorusCfg(16));
    ASSERT_LT(a16, a64);
    ASSERT_LT(a64, a256);
    EXPECT_LE(a64 - a16, 2u * (64 - 16))
        << a16 << " allocations at 16 nodes, " << a64 << " at 64";
    EXPECT_LE(a256 - a64, 2u * (256 - 64))
        << a64 << " allocations at 64 nodes, " << a256 << " at 256";
}

TEST(AllocConstruction, PoolBytesPerNodeArePinned)
{
    // Fixed per-node state at the torus256_sat geometry: 5 input and
    // 5 output ports of 2 VCs, 2-flit buffers, one injection and one
    // ejection channel. A change that grows it must update these
    // figures (and docs/PERFORMANCE.md section 9) on purpose.
    const SimConfig cfg = saturatedTorusCfg(16);
    const std::uint64_t n = cfg.numNodes();
    const Router::StatePool routers(cfg, n);
    const Injector::StatePool injectors(cfg, n);
    const Receiver::StatePool receivers(cfg, n);
    EXPECT_EQ(routers.bytes() / n, 3427u);
    EXPECT_EQ(injectors.bytes() / n, 627u);
    // Ejection buffers plus the dense per-source sequence row (one
    // int64 per node of the 256-node network).
    EXPECT_EQ(receivers.bytes() / n, 2394u);
    EXPECT_EQ(routers.bytes() % n, 0u);
    EXPECT_EQ(injectors.bytes() % n, 0u);
    EXPECT_EQ(receivers.bytes() % n, 0u);
}

TEST(AllocSteady, CounterInstrumentationWorks)
{
    const std::uint64_t before =
        g_allocs.load(std::memory_order_relaxed);
    auto* p = new int(42);
    const std::uint64_t after =
        g_allocs.load(std::memory_order_relaxed);
    delete p;
    EXPECT_GE(after - before, 1u);
}

} // namespace
} // namespace crnet
