#include "src/core/network.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <string>

#include "src/core/timeseries.hh"
#include "src/fault/campaign.hh"
#include "src/sim/log.hh"
#include "src/sim/snapshot.hh"
#include "src/sim/trace.hh"
#include "src/sim/walltime.hh"

namespace crnet {

namespace {

/**
 * How often (in cycles, a power of two) a busy router is probed with
 * idle() so it can leave the wake set. See sweep().
 */
constexpr Cycle kIdleProbePeriod = 8;
static_assert((kIdleProbePeriod & (kIdleProbePeriod - 1)) == 0 &&
                  kIdleProbePeriod != 0,
              "kIdleProbePeriod must be a power of two: the probe "
              "boundary test masks with (kIdleProbePeriod - 1) "
              "instead of taking a modulus");

/**
 * First id in [id, end) whose wake flag is set, or `end`. Skips idle
 * stretches eight flags per load.
 */
NodeId
nextAwake(const std::uint8_t* flags, NodeId id, NodeId end)
{
    for (; id + 8 <= end; id += 8) {
        std::uint64_t word;
        std::memcpy(&word, flags + id, sizeof(word));
        if (word != 0) {
            const int bit = std::endian::native == std::endian::little
                                ? std::countr_zero(word)
                                : std::countl_zero(word);
            return id + static_cast<NodeId>(bit / 8);
        }
    }
    while (id < end && flags[id] == 0)
        ++id;
    return id;
}

} // namespace

void
Network::Wave::clear()
{
    flits.clear();
    recvFlits.clear();
    credits.clear();
    injCredits.clear();
    bkills.clear();
    aborts.clear();
}

bool
Network::Wave::empty() const
{
    return flits.empty() && recvFlits.empty() && credits.empty() &&
           injCredits.empty() && bkills.empty() && aborts.empty();
}

Network::Network(const SimConfig& cfg) : cfg_(cfg)
{
    cfg_.validate();
    forceWake_ = cfg_.sched == SchedulerKind::Sweep;
    // Events mature at most channelLatency cycles out (+1 for "next
    // cycle" staging, +1 because the current bucket is in use); round
    // the bucket count up to a power of two so waveIn()/deliver()
    // index with a mask instead of a division. The extra buckets stay
    // empty and cost nothing.
    std::size_t bucket_count = 1;
    while (bucket_count <
           static_cast<std::size_t>(cfg_.channelLatency) + 2)
        bucket_count <<= 1;
    bucketMask_ = bucket_count - 1;
    buckets_.resize(bucket_count);
    Rng root(cfg_.seed);

    topo_ = makeTopology(cfg_);
    faults_ = std::make_unique<FaultModel>(
        *topo_, cfg_.transientFaultRate, root.fork());
    if (cfg_.permanentLinkFaults > 0)
        faults_->injectPermanentFaults(cfg_.permanentLinkFaults);
    routing_ = makeRouting(cfg_, *topo_, *faults_);
    generator_ = std::make_unique<TrafficGenerator>(cfg_, *topo_,
                                                    root.fork());

    const NodeId n = topo_->numNodes();

    // Sharding setup. The shard count is an execution knob: ranges
    // are contiguous and the component construction below (and with
    // it the RNG fork order) is identical for every value.
    shards_ = std::min<unsigned>(resolveShards(cfg_.shards),
                                 static_cast<unsigned>(n));
    shards_ = std::max(shards_, 1u);
    shardCtx_.resize(shards_);
    {
        const NodeId per = n / shards_;
        const NodeId extra = n % shards_;
        NodeId at = 0;
        for (unsigned s = 0; s < shards_; ++s) {
            shardCtx_[s].begin = at;
            at += per + (s < extra ? 1 : 0);
            shardCtx_[s].end = at;
        }
    }
    if (shards_ > 1) {
        shardStats_.reserve(shards_);
        for (unsigned s = 0; s < shards_; ++s)
            shardStats_.push_back(std::make_unique<NetworkStats>());
    }

    routerPool_ = std::make_unique<Router::StatePool>(cfg_, n);
    injectorPool_ = std::make_unique<Injector::StatePool>(cfg_, n);
    receiverPool_ = std::make_unique<Receiver::StatePool>(cfg_, n);
    routers_.reserve(n);
    injectors_.reserve(n);
    receivers_.reserve(n);
    unsigned shard = 0;
    for (NodeId id = 0; id < n; ++id) {
        if (id >= shardCtx_[shard].end)
            ++shard;
        // Counters accumulate in the owning shard's block (folded
        // into stats_ every sweep); with one shard that block IS
        // stats_.
        NetworkStats* blk =
            shards_ > 1 ? shardStats_[shard].get() : &stats_;
        routers_.emplace_back(id, cfg_, *routing_, &blk->router,
                              root.fork(), *routerPool_, id);
        injectors_.emplace_back(id, cfg_, *topo_, *routing_, blk,
                                root.fork(), *injectorPool_, id);
        receivers_.emplace_back(id, cfg_, blk, *receiverPool_, id);
    }

    // Pre-size the hot-path containers so the steady state never
    // allocates: each wave can hold one event per node on its
    // bandwidth-limited kinds (kill/abort traffic is rare and may
    // grow once, then keeps its capacity).
    for (Wave& w : buckets_) {
        w.flits.reserve(n);
        w.recvFlits.reserve(n);
        w.credits.reserve(n);
        w.injCredits.reserve(n);
        w.bkills.reserve(16);
        w.aborts.reserve(16);
    }
    injAwake_.assign(n, 0);
    rtrAwake_.assign(n, 0);
    rcvAwake_.assign(n, 0);
    injNextAt_.assign(n, kNeverCycle);
    rcvNextAt_.assign(n, kNeverCycle);
    {
        std::vector<std::pair<Cycle, NodeId>> heap_store;
        heap_store.reserve(n);
        injDeadlines_ =
            DeadlineHeap(std::greater<>{}, std::move(heap_store));
        std::vector<std::pair<Cycle, NodeId>> heap_store2;
        heap_store2.reserve(n);
        rcvDeadlines_ =
            DeadlineHeap(std::greater<>{}, std::move(heap_store2));
    }
    // Everything starts asleep: at cycle 0 every component is idle,
    // and generate()/sendMessage()/deliver() wake whoever gets work.
    for (ShardCtx& ctx : shardCtx_) {
        const std::size_t range = ctx.end - ctx.begin;
        ctx.injWork.reserve(range);
        ctx.rtrWork.reserve(range);
        ctx.rcvWork.reserve(range);
        ctx.audit.kills.reserve(16);
    }

    // One shard runs inline on the calling thread; only more than one
    // needs the worker pool and its barrier telemetry.
    if (shards_ > 1) {
        shardPool_ = std::make_unique<ThreadPool>(shards_);
        Telemetry& reg = Telemetry::instance();
        shardBarrierNanos_ =
            reg.counter("sched.shard_barrier_wait_nanos");
        shardTickGauges_.reserve(shards_);
        for (unsigned s = 0; s < shards_; ++s) {
            shardTickGauges_.push_back(reg.gauge(
                "sched.shard_ticks." + std::to_string(s)));
        }
    }

    // The schedule fork happens last and only when configured, so
    // fault-free runs keep exactly the RNG streams they had before
    // dynamic faults existed.
    if (cfg_.hasDynamicFaults()) {
        dynamicFaults_ = true;
        schedule_ = std::make_unique<FaultSchedule>(
            FaultSchedule::fromConfig(cfg_, *topo_, root.fork()));
        for (NodeId id = 0; id < n; ++id)
            receivers_[id].setDynamicFaults(true);
    }

#if CRNET_AUDIT_ENABLED
    audit_ = std::make_unique<Auditor>(cfg_, *topo_);
    for (NodeId id = 0; id < n; ++id) {
        routers_[id].setAuditor(audit_.get());
        injectors_[id].setAuditor(audit_.get());
        receivers_[id].setAuditor(audit_.get());
    }
#endif

    // Observability sinks. All of these are null/off by default, so
    // an untraced run pays exactly one null-pointer branch per hook.
    const std::string trace_prefix = Tracer::resolvePrefix(cfg_);
    if (!trace_prefix.empty()) {
        trace_ =
            std::make_unique<Tracer>(trace_prefix, cfg_.watchSpec);
        for (NodeId id = 0; id < n; ++id) {
            routers_[id].setTracer(trace_.get());
            injectors_[id].setTracer(trace_.get());
            receivers_[id].setTracer(trace_.get());
        }
        for (ShardCtx& ctx : shardCtx_) {
            ctx.injTrace.reserve(64);
            ctx.rtrTrace.reserve(64);
            ctx.rcvTrace.reserve(64);
        }
    }
    if (cfg_.sampleInterval > 0)
        timeseries_ = std::make_unique<TimeSeries>(cfg_.sampleInterval);
    if (cfg_.heatmapEnabled) {
        for (NodeId id = 0; id < n; ++id)
            routers_[id].setHeatTracking(true);
    }
}

Network::~Network() = default;

Network::Wave&
Network::waveIn(Cycle delay)
{
    return buckets_[(now_ + delay) & bucketMask_];
}

void
Network::scheduleInjector(NodeId id, Cycle at)
{
    if (at == kNeverCycle)
        return;
    if (at <= now_ + 1) {
        wakeInjector(id);
        return;
    }
    if (at >= injNextAt_[id])
        return;  // An earlier-or-equal deadline is already queued.
    injNextAt_[id] = at;
    injDeadlines_.push({at, id});
}

void
Network::scheduleReceiver(NodeId id, Cycle at)
{
    if (at == kNeverCycle)
        return;
    if (at <= now_ + 1) {
        wakeReceiver(id);
        return;
    }
    if (at >= rcvNextAt_[id])
        return;
    rcvNextAt_[id] = at;
    rcvDeadlines_.push({at, id});
}

void
Network::popDueDeadlines()
{
    while (!injDeadlines_.empty() &&
           injDeadlines_.top().first <= now_) {
        const NodeId id = injDeadlines_.top().second;
        if (injNextAt_[id] == injDeadlines_.top().first)
            injNextAt_[id] = kNeverCycle;
        injDeadlines_.pop();
        wakeInjector(id);  // Stale entries = harmless no-op ticks.
    }
    while (!rcvDeadlines_.empty() &&
           rcvDeadlines_.top().first <= now_) {
        const NodeId id = rcvDeadlines_.top().second;
        if (rcvNextAt_[id] == rcvDeadlines_.top().first)
            rcvNextAt_[id] = kNeverCycle;
        rcvDeadlines_.pop();
        wakeReceiver(id);
    }
}

void
Network::deliver()
{
    const PortId net_ports = routers_[0].networkPorts();
    Wave& cur = buckets_[now_ & bucketMask_];
    for (PendingFlit& p : cur.flits) {
        if (dynamicFaults_ && p.networkHop) {
            // A flit in flight on a channel that died under it is
            // gone — data counts as purged (conservation holds), a
            // kill token is absorbed (the death-time teardown already
            // re-issued a kill downstream of the break).
            const NodeId sender = topo_->neighbor(p.node, p.inPort);
            if (sender == kInvalidNode ||
                !faults_->linkOk(sender, oppositePort(p.inPort))) {
                if (p.flit.isData()) {
                    stats_.flitsLostOnDeadLinks.inc();
                    CRNET_AUDIT_HOOK(audit_.get(), onFlitsPurged(1));
                    if (trace_ != nullptr) {
                        trace_->record(TraceEventKind::LinkLoss,
                                       p.flit.msg, p.node, p.flit.src,
                                       p.flit.dst, p.flit.attempt,
                                       p.inPort);
                    }
                } else {
                    stats_.killsAbsorbedAtDeadLinks.inc();
                }
                continue;
            }
        }
        if (p.networkHop && p.flit.isData())
            faults_->maybeCorrupt(p.flit);
        routers_[p.node].acceptFlit(p.inPort, p.vc, p.flit);
        wakeRouter(p.node);
    }
    for (const PendingRecvFlit& p : cur.recvFlits) {
        receivers_[p.node].acceptFlit(p.ejChannel, p.vc, p.flit);
        wakeReceiver(p.node);
    }
    for (const PendingCredit& p : cur.credits) {
        if (dynamicFaults_ && p.outPort < net_ports &&
            !faults_->linkOk(p.node, p.outPort)) {
            stats_.controlAbsorbedAtDeadLinks.inc();
            continue;
        }
        routers_[p.node].acceptCredit(p.outPort, p.vc);
        wakeRouter(p.node);
    }
    for (const PendingInjCredit& p : cur.injCredits) {
        injectors_[p.node].acceptCredit(p.injChannel, p.vc);
        wakeInjector(p.node);
    }
    for (const PendingBkill& p : cur.bkills) {
        if (dynamicFaults_ && p.outPort < net_ports &&
            !faults_->linkOk(p.node, p.outPort)) {
            stats_.controlAbsorbedAtDeadLinks.inc();
            continue;
        }
        routers_[p.node].acceptBkill(p.outPort, p.vc);
        wakeRouter(p.node);
    }
    for (const PendingAbort& p : cur.aborts) {
        injectors_[p.node].acceptAbort(p.injChannel, p.vc, p.msg);
        wakeInjector(p.node);
    }
    cur.clear();
}

void
Network::teardownDirectedLink(NodeId u, PortId p)
{
    routers_[u].onOutputLinkDead(p, now_);
    wakeRouter(u);
    const NodeId d = topo_->neighbor(u, p);
    if (d != kInvalidNode) {
        routers_[d].onInputLinkDead(oppositePort(p), now_);
        wakeRouter(d);
    }
}

void
Network::repairDirectedLink(NodeId u, PortId p)
{
    faults_->reviveDirectedLink(u, p);
    routers_[u].onOutputLinkRepaired(p, now_);
    wakeRouter(u);
}

void
Network::applyOneFaultEvent(const FaultEvent& ev)
{
    stats_.faultEventsApplied.inc();
    if (trace_ != nullptr) {
        trace_->record(TraceEventKind::Fault, kInvalidMsg, ev.node,
                       kInvalidNode, kInvalidNode,
                       static_cast<std::uint16_t>(ev.kind), ev.port);
    }
    switch (ev.kind) {
    case FaultEventKind::DirectedLinkDeath:
        if (faults_->linkOk(ev.node, ev.port)) {
            faults_->killDirectedLink(ev.node, ev.port);
            teardownDirectedLink(ev.node, ev.port);
        }
        break;
    case FaultEventKind::LinkDeath: {
        if (faults_->linkOk(ev.node, ev.port)) {
            faults_->killDirectedLink(ev.node, ev.port);
            teardownDirectedLink(ev.node, ev.port);
        }
        const NodeId nbr = topo_->neighbor(ev.node, ev.port);
        const PortId opp = oppositePort(ev.port);
        if (nbr != kInvalidNode && faults_->linkOk(nbr, opp)) {
            faults_->killDirectedLink(nbr, opp);
            teardownDirectedLink(nbr, opp);
        }
        break;
    }
    case FaultEventKind::RouterFailStop: {
        const PortId net_ports = routers_[ev.node].networkPorts();
        for (PortId p = 0; p < net_ports; ++p) {
            const NodeId nbr = topo_->neighbor(ev.node, p);
            if (nbr == kInvalidNode)
                continue;
            if (faults_->linkOk(ev.node, p)) {
                faults_->killDirectedLink(ev.node, p);
                teardownDirectedLink(ev.node, p);
            }
            const PortId opp = oppositePort(p);
            if (faults_->linkOk(nbr, opp)) {
                faults_->killDirectedLink(nbr, opp);
                teardownDirectedLink(nbr, opp);
            }
        }
        break;
    }
    case FaultEventKind::LinkRepair: {
        if (!faults_->linkOk(ev.node, ev.port))
            repairDirectedLink(ev.node, ev.port);
        const NodeId nbr = topo_->neighbor(ev.node, ev.port);
        const PortId opp = oppositePort(ev.port);
        if (nbr != kInvalidNode && !faults_->linkOk(nbr, opp))
            repairDirectedLink(nbr, opp);
        break;
    }
    case FaultEventKind::BurstStart:
        faults_->setBurstRate(ev.rate);
        break;
    case FaultEventKind::BurstEnd:
        faults_->clearBurstRate();
        break;
    }
}

void
Network::applyFaultEvents()
{
    dueEvents_.clear();
    schedule_->collectDue(now_, dueEvents_);
    for (const FaultEvent& ev : dueEvents_)
        applyOneFaultEvent(ev);
}

void
Network::injectFaultEvent(const FaultEvent& ev)
{
    if (!dynamicFaults_) {
        dynamicFaults_ = true;
        schedule_ = std::make_unique<FaultSchedule>();
        for (Receiver& rcv : receivers_)
            rcv.setDynamicFaults(true);
    }
    applyOneFaultEvent(ev);
}

void
Network::generate()
{
    if (!trafficEnabled_)
        return;
    const NodeId n = topo_->numNodes();
    // Batched arrival scan: scanArrivals consumes exactly the same
    // per-node Bernoulli draws the old per-node drawArrival loop did,
    // so the RNG interleaving with makeFor below is unchanged — but
    // the (overwhelmingly common) no-arrival nodes stay inside one
    // tight loop over the generator stream.
    for (NodeId src = generator_->scanArrivals(0); src < n;
         src = generator_->scanArrivals(src + 1)) {
        if (injectors_[src].queueFull()) {
            // Offered but not accepted; the pair sequence number is
            // not allocated, so receivers never see a phantom gap.
            stats_.sourceQueueDrops.inc();
            continue;
        }
        const PendingMessage msg =
            generator_->makeFor(src, now_, measuring_);
        injectors_[src].enqueue(msg);
        wakeInjector(src);
        stats_.messagesGenerated.inc();
        if (ledger_ != nullptr)
            ledger_->onAccepted(msg);
        if (msg.measured) {
            stats_.messagesMeasured.inc();
            ++measuredCreated_;
        }
    }
}

void
Network::collectInjector(NodeId n)
{
    Injector& inj = injectors_[n];
    for (const InjectedFlit& f : inj.sent) {
        waveIn(1).flits.push_back(PendingFlit{
            n,
            static_cast<PortId>(routers_[n].injBase() + f.injChannel),
            f.vc, f.flit, false});
    }
}

void
Network::collectRouter(NodeId n)
{
    Router& r = routers_[n];
    const PortId net_ports = r.networkPorts();

    for (const SentFlit& s : r.sentFlits) {
        if (s.outPort < net_ports) {
            const NodeId nbr = topo_->neighbor(n, s.outPort);
            if (nbr == kInvalidNode)
                panic("router ", n, " sent a flit off the network via "
                      "port ", s.outPort);
            waveIn(cfg_.channelLatency).flits.push_back(PendingFlit{
                nbr, oppositePort(s.outPort), s.vc, s.flit, true});
        } else {
            waveIn(1).recvFlits.push_back(PendingRecvFlit{
                n, static_cast<std::uint32_t>(s.outPort - r.ejBase()),
                s.vc, s.flit});
        }
    }

    for (const SentCredit& c : r.sentCredits) {
        if (c.inPort < net_ports) {
            const NodeId upstream = topo_->neighbor(n, c.inPort);
            if (upstream == kInvalidNode)
                panic("credit to a nonexistent upstream at node ", n);
            waveIn(cfg_.channelLatency).credits.push_back(
                PendingCredit{upstream, oppositePort(c.inPort),
                              c.vc});
        } else {
            waveIn(1).injCredits.push_back(PendingInjCredit{
                n, static_cast<std::uint32_t>(c.inPort - r.injBase()),
                c.vc});
        }
    }

    for (const SentBkill& b : r.sentBkills) {
        if (b.inPort >= net_ports)
            panic("backward kill to an injection port must be an "
                  "abort");
        const NodeId upstream = topo_->neighbor(n, b.inPort);
        if (upstream == kInvalidNode)
            panic("backward kill to a nonexistent upstream at node ",
                  n);
        waveIn(cfg_.channelLatency).bkills.push_back(PendingBkill{
            upstream, oppositePort(b.inPort), b.vc});
    }

    for (const SentAbort& a : r.sentAborts)
        waveIn(1).aborts.push_back(PendingAbort{n, a.injChannel, a.vc,
                                                a.msg});
}

void
Network::collectReceiver(NodeId n)
{
    Receiver& rcv = receivers_[n];
    for (const ReceiverCredit& c : rcv.credits) {
        waveIn(1).credits.push_back(PendingCredit{
            n, static_cast<PortId>(routers_[n].ejBase() + c.ejChannel),
            c.vc});
    }
    // Starvation-timeout bkills tear the stranded ejection
    // reservation down toward the source.
    for (const ReceiverCredit& b : rcv.bkills) {
        waveIn(1).bkills.push_back(PendingBkill{
            n, static_cast<PortId>(routers_[n].ejBase() + b.ejChannel),
            b.vc});
    }
}

std::uint64_t
Network::activityLevel() const
{
    return stats_.router.flitsForwarded.value() +
           stats_.router.killsForwarded.value() +
           stats_.router.bkillHops.value() +
           stats_.router.flitsPurged.value() +
           stats_.flitsInjected.value() +
           stats_.flitsConsumed.value();
}

// --- The cycle loop ----------------------------------------------------
//
// Determinism argument (docs/PERFORMANCE.md has the long form): the
// compute phase runs only component ticks, whose cross-component
// effects are all staged — wave pushes through per-component outboxes
// (collected serially afterwards), ledger updates and Welford
// accumulator adds through the deferred-stats outboxes, trace records
// through per-shard staging buffers, audit conservation deltas through
// per-thread stages. Counters are commutative and land in per-shard
// blocks. Every order-sensitive replay below iterates shard-major over
// contiguous ascending ranges, i.e. in global node order, so stats,
// traces, wave contents, heap layouts and snapshots are byte-identical
// at every shard count.

void
Network::shardWorker(unsigned s)
{
    ShardCtx& ctx = shardCtx_[s];
    // Locals, so the scans below need not reload them after every
    // (opaque) component tick.
    const NodeId begin = ctx.begin, end = ctx.end;
    const Cycle now = now_;
    std::uint8_t* const injAwake = injAwake_.data();
    std::uint8_t* const rtrAwake = rtrAwake_.data();
    std::uint8_t* const rcvAwake = rcvAwake_.data();
    if (forceWake_) {
        std::fill(injAwake + begin, injAwake + end, 1);
        std::fill(rtrAwake + begin, rtrAwake + end, 1);
        std::fill(rcvAwake + begin, rcvAwake + end, 1);
    }
    ctx.injWork.clear();
    ctx.rtrWork.clear();
    ctx.rcvWork.clear();
    Auditor::setThreadStage(&ctx.audit);
    const bool tracing = trace_ != nullptr;
    std::uint64_t pt = profTimed_ ? TickProfiler::stamp() : 0;
    const auto stampPhase = [&](std::size_t phase) {
        if (profTimed_) {
            const std::uint64_t t = TickProfiler::stamp();
            ctx.phaseNanos[phase] += t - pt;
            pt = t;
        }
    };

    // Flags are only ever touched by this range's own worker during
    // the compute phase (wakes happen in the serial delivery and
    // finish steps), so the scan is race-free. An injector/receiver
    // flag is cleared as it is picked up: a tick's only wake is its
    // own re-registration, applied in the finish step. Router flags
    // stay set until the finish step's idle probe clears them.
    if (tracing)
        Tracer::setThreadStage(&ctx.injTrace);
    for (NodeId id = nextAwake(injAwake, begin, end); id < end;
         id = nextAwake(injAwake, id + 1, end)) {
        injAwake[id] = 0;
        ctx.injWork.push_back(id);
        injectors_[id].tick(now);
    }
    stampPhase(0);
    if (tracing)
        Tracer::setThreadStage(&ctx.rtrTrace);
    for (NodeId id = nextAwake(rtrAwake, begin, end); id < end;
         id = nextAwake(rtrAwake, id + 1, end)) {
        ctx.rtrWork.push_back(id);
        routers_[id].tick(now);
    }
    stampPhase(1);
    if (tracing)
        Tracer::setThreadStage(&ctx.rcvTrace);
    for (NodeId id = nextAwake(rcvAwake, begin, end); id < end;
         id = nextAwake(rcvAwake, id + 1, end)) {
        rcvAwake[id] = 0;
        ctx.rcvWork.push_back(id);
        receivers_[id].tick(now);
    }
    stampPhase(2);
    ctx.ticks +=
        ctx.injWork.size() + ctx.rtrWork.size() + ctx.rcvWork.size();
    if (tracing)
        Tracer::setThreadStage(nullptr);
    Auditor::setThreadStage(nullptr);
}

void
Network::runShardBarrier()
{
    for (unsigned s = 0; s < shards_; ++s)
        shardPool_->submit([this, s] { shardWorker(s); });
    const std::uint64_t w0 = WallTimer::nanos();
    shardPool_->wait();
    shardBarrierNanos_->fetch_add(WallTimer::nanos() - w0,
                                  std::memory_order_relaxed);
    // The barrier provides the happens-before for reading the
    // workers' tick totals.
    for (unsigned s = 0; s < shards_; ++s) {
        shardTickGauges_[s]->store(shardCtx_[s].ticks,
                                   std::memory_order_relaxed);
    }
}

void
Network::drainShardSidecars()
{
#if CRNET_AUDIT_ENABLED
    if (audit_ != nullptr) {
        // Conservation counters and the kill-token set are order-
        // insensitive (issuedKills_ serializes sorted).
        for (ShardCtx& ctx : shardCtx_)
            audit_->foldStage(ctx.audit);
    }
#endif
    if (trace_ == nullptr)
        return;
    // Phase-major, shard-minor = node order within each phase. The
    // replay re-enters record() with no stage installed, so the watch
    // filter (whose pair-adoption mutates watchedMsgs_) runs in
    // deterministic order; Tracer::now_ is constant through the cycle,
    // so the re-recorded timestamps match the staged ones.
    const auto replay = [this](std::vector<TraceEvent>& staged) {
        for (const TraceEvent& e : staged)
            trace_->record(e.kind, e.msg, e.node, e.src, e.dst,
                           e.attempt, e.arg);
        staged.clear();
    };
    for (ShardCtx& ctx : shardCtx_)
        replay(ctx.injTrace);
    for (ShardCtx& ctx : shardCtx_)
        replay(ctx.rtrTrace);
    for (ShardCtx& ctx : shardCtx_)
        replay(ctx.rcvTrace);
}

void
Network::foldShardCounters()
{
    for (auto& blk : shardStats_) {
        forEachCounter(
            [](Counter& into, Counter& from) {
                if (from.value() != 0) {
                    into.inc(from.value());
                    from.reset();
                }
            },
            stats_, *blk);
    }
}

void
Network::drainInjectorOutboxes(Injector& inj)
{
    // Within one injector tick every give-up precedes every commit
    // (retry/timeout processing runs before injectFlits), so draining
    // the failure outbox first keeps the ledger/accumulator order of
    // the tick itself.
    if (ledger_ != nullptr) {
        for (const FailedMessage& f : inj.failed)
            ledger_->onRefused(f.msg, f.at);
    }
    for (const CommittedSample& c : inj.committedStats) {
        stats_.attempts.add(c.attempts);
        stats_.padOverhead.add(c.padFrac);
    }
}

void
Network::drainReceiverOutboxes(Receiver& rcv)
{
    for (const DeliveredMessage& d : rcv.deliveries) {
        // Per delivery: accumulator adds, then the ledger and the
        // explicit-send record.
        if (d.measured) {
            const auto total =
                static_cast<double>(d.deliveredAt - d.createdAt);
            stats_.totalLatency.add(total);
            stats_.latencyHist.add(total);
            stats_.netLatency.add(static_cast<double>(
                d.deliveredAt - d.headInjectedAt));
        }
        if (ledger_ != nullptr)
            ledger_->onDelivered(d);
        auto it = manualPending_.find(d.id);
        if (it != manualPending_.end()) {
            manualDelivered_[d.id] = d;
            manualPending_.erase(it);
        }
    }
}

void
Network::sweep()
{
    if (shardPool_ != nullptr)
        runShardBarrier();
    else
        shardWorker(0);
    drainShardSidecars();

    // Serial finish, node order: drain the deferred stats, stage the
    // components' output into the waves, re-arm their wake state.
    // Profiled ticks book each phase's tick time (summed over shards)
    // plus its share of this finish.
    std::uint64_t pt = profTimed_ ? TickProfiler::stamp() : 0;
    const auto bookPhase = [&](TickPhase phase, std::size_t k) {
        if (!profTimed_)
            return;
        const std::uint64_t t = TickProfiler::stamp();
        std::uint64_t nanos = t - pt;
        for (ShardCtx& ctx : shardCtx_) {
            nanos += ctx.phaseNanos[k];
            ctx.phaseNanos[k] = 0;
        }
        prof_->add(phase, nanos);
        pt = t;
    };
    for (const ShardCtx& ctx : shardCtx_) {
        for (const NodeId id : ctx.injWork) {
            drainInjectorOutboxes(injectors_[id]);
            collectInjector(id);
            scheduleInjector(id, injectors_[id].nextEventCycle(now_));
        }
    }
    bookPhase(TickPhase::Injectors, 0);
    // Routers have no future-only deadlines: any held flit,
    // allocation or pending kill needs the very next tick, so a
    // ticked router is assumed still busy. Probing idle() every cycle
    // would re-scan every input VC and cost more than the skipped
    // ticks save; instead busy routers are only probed for sleep on
    // coarse boundaries (over-waking is harmless — a router lingers
    // awake for at most kIdleProbePeriod - 1 no-op ticks after its
    // last flit leaves).
    const bool probe = (now_ & (kIdleProbePeriod - 1)) == 0;
    for (const ShardCtx& ctx : shardCtx_) {
        for (const NodeId id : ctx.rtrWork) {
            collectRouter(id);
            if (probe && routers_[id].idle())
                rtrAwake_[id] = 0;
        }
    }
    bookPhase(TickPhase::Routers, 1);
    for (const ShardCtx& ctx : shardCtx_) {
        for (const NodeId id : ctx.rcvWork) {
            drainReceiverOutboxes(receivers_[id]);
            collectReceiver(id);
            scheduleReceiver(id, receivers_[id].nextEventCycle(now_));
        }
    }
    foldShardCounters();
    bookPhase(TickPhase::Receivers, 2);
}

void
Network::tick()
{
    // Self-profiler: one tick in every stride is clock-stamped
    // phase-by-phase (profTimed_); audit and sampling work is rare
    // enough to be timed exactly. Everything here is observability
    // only — stamps never feed back into simulation state.
    profTimed_ = prof_ != nullptr && prof_->armTick();
    std::uint64_t pt = profTimed_ ? TickProfiler::stamp() : 0;

    CRNET_AUDIT_HOOK(audit_.get(), beginCycle(now_));
    if (trace_ != nullptr)
        trace_->beginCycle(now_);
    if (dynamicFaults_ && schedule_ != nullptr)
        applyFaultEvents();
    popDueDeadlines();
    deliver();
    if (profTimed_) {
        // Cycle-open bookkeeping (faults, deadlines, trace) rides
        // with the delivery phase.
        const std::uint64_t t = TickProfiler::stamp();
        prof_->add(TickPhase::Deliver, t - pt);
        pt = t;
    }
    generate();
    if (profTimed_)
        prof_->add(TickPhase::Generate, TickProfiler::stamp() - pt);

    sweep();

    const std::uint64_t level = activityLevel();
    if (level != lastActivityLevel_) {
        lastActivityLevel_ = level;
        lastActivity_ = now_;
    }
    if (dynamicFaults_ && !forensicsDumped_ && deadlocked()) {
        forensicsDumped_ = true;
        reportDeadlockForensics();
    }
#if CRNET_AUDIT_ENABLED
    if (audit_ != nullptr && now_ % cfg_.auditInterval == 0) {
        const std::uint64_t a0 =
            prof_ != nullptr ? TickProfiler::stamp() : 0;
        runAuditSweep();
        if (prof_ != nullptr)
            prof_->add(TickPhase::Audit, TickProfiler::stamp() - a0);
    }
#endif
    if (timeseries_ != nullptr &&
        (now_ + 1) % timeseries_->interval() == 0) {
        const std::uint64_t s0 =
            prof_ != nullptr ? TickProfiler::stamp() : 0;
        takeSample();
        if (prof_ != nullptr)
            prof_->add(TickPhase::Sample, TickProfiler::stamp() - s0);
    }
    if (profTimed_)
        sampleTelemetryGauges();
    ++now_;
}

void
Network::reportDeadlockForensics()
{
    std::ostringstream os;
    dumpForensics(os);
    warn("deadlock watchdog fired under dynamic faults\n", os.str());
}

void
Network::sampleGauges(std::uint64_t& in_flight,
                      std::uint64_t& buffered) const
{
    // Post-sweep, the wake flags mark every component re-armed for
    // the next cycle — which covers every nonzero gauge: a sleeping
    // injector has no active worm, and sleeping routers/receivers
    // buffer nothing (buffered flits always demand the next tick).
    const NodeId n = topo_->numNodes();
    for (NodeId id = 0; id < n; ++id) {
        if (injAwake_[id] != 0)
            in_flight += injectors_[id].activeWorms();
        if (rtrAwake_[id] != 0)
            buffered += routers_[id].bufferedFlits();
        if (rcvAwake_[id] != 0)
            buffered += receivers_[id].bufferedFlits();
    }
}

void
Network::takeSample()
{
    std::uint64_t in_flight = 0;
    std::uint64_t buffered = 0;
    sampleGauges(in_flight, buffered);
    timeseries_->sample(now_ + 1, stats_, in_flight, buffered);
}

std::vector<TimeSeriesSample>
Network::timeseriesSamples() const
{
    if (timeseries_ == nullptr)
        return {};
    std::vector<TimeSeriesSample> out = timeseries_->samples();
    // A run that stops mid-interval still reports its tail cycles:
    // flush a final partial sample covering everything since the last
    // boundary. peekTail leaves the differencing baselines untouched,
    // so a run that later continues (e.g. after a snapshot restore)
    // samples exactly as if no one had peeked.
    const Cycle last = out.empty() ? 0 : out.back().at;
    if (now_ > last) {
        std::uint64_t in_flight = 0;
        std::uint64_t buffered = 0;
        sampleGauges(in_flight, buffered);
        out.push_back(
            timeseries_->peekTail(now_, stats_, in_flight, buffered));
    }
    return out;
}

std::shared_ptr<const HeatmapData>
Network::collectHeatmap() const
{
    if (!cfg_.heatmapEnabled)
        return nullptr;
    auto hm = std::make_shared<HeatmapData>();
    const NodeId n = topo_->numNodes();
    const PortId net_ports = routers_[0].networkPorts();
    hm->radixK = cfg_.radixK;
    hm->dims = cfg_.dimensionsN;
    hm->netPorts = net_ports;
    hm->cycles = now_;
    hm->occupancyIntegral.resize(n);
    hm->blockedCycles.assign(
        static_cast<std::size_t>(n) * net_ports, 0);
    hm->forwarded.assign(static_cast<std::size_t>(n) * net_ports, 0);
    for (NodeId id = 0; id < n; ++id) {
        const Router& r = routers_[id];
        hm->occupancyIntegral[id] = r.heatOccupancyIntegral();
        for (PortId p = 0; p < net_ports; ++p) {
            const std::size_t at =
                static_cast<std::size_t>(id) * net_ports + p;
            hm->forwarded[at] = r.heatForwarded(p);
            hm->blockedCycles[at] = r.heatBlocked(p);
        }
    }
    return hm;
}

void
Network::runAuditSweep()
{
    AuditSnapshot snap;
    snap.now = now_;
    const NodeId n = topo_->numNodes();
    const PortId net_ports = routers_[0].networkPorts();
    const std::uint32_t vcs = cfg_.numVcs;

    // Edge table at fixed indices — network edges (keyed by their
    // downstream input port), then injection, then ejection — so the
    // wave scan below can address edges directly.
    const std::size_t net_edges =
        static_cast<std::size_t>(n) * net_ports * vcs;
    const std::size_t inj_edges =
        static_cast<std::size_t>(n) * cfg_.injectionChannels * vcs;
    const std::size_t ej_edges =
        static_cast<std::size_t>(n) * cfg_.ejectionChannels * vcs;
    snap.edges.resize(net_edges + inj_edges + ej_edges);

    const auto net_idx = [&](NodeId node, PortId in_port, VcId vc) {
        return (static_cast<std::size_t>(node) * net_ports + in_port) *
                   vcs +
               vc;
    };
    const auto inj_idx = [&](NodeId node, std::uint32_t ch, VcId vc) {
        return net_edges +
               (static_cast<std::size_t>(node) *
                    cfg_.injectionChannels +
                ch) * vcs +
               vc;
    };
    const auto ej_idx = [&](NodeId node, std::uint32_t ch, VcId vc) {
        return net_edges + inj_edges +
               (static_cast<std::size_t>(node) *
                    cfg_.ejectionChannels +
                ch) * vcs +
               vc;
    };

    for (NodeId id = 0; id < n; ++id) {
        const Router& r = routers_[id];
        snap.bufferedFlits += r.bufferedFlits();
        snap.bufferedFlits += receivers_[id].bufferedFlits();

        for (PortId p = 0; p < net_ports; ++p) {
            const NodeId up = topo_->neighbor(id, p);
            for (VcId v = 0; v < vcs; ++v) {
                AuditEdge& e = snap.edges[net_idx(id, p, v)];
                e.kind = AuditEdgeKind::Network;
                e.node = id;
                e.port = p;
                e.vc = v;
                if (up == kInvalidNode) {
                    e.skip = true;  // Mesh boundary: no channel here.
                    continue;
                }
                if (dynamicFaults_ &&
                    !faults_->linkOk(up, oppositePort(p))) {
                    e.skip = true;  // Dead wire: ledger mid-teardown.
                    continue;
                }
                const Router::OutputProbe o =
                    routers_[up].outputProbe(oppositePort(p), v);
                e.credits = o.credits;
                e.occupancy = r.inputOccupancy(p, v);
                e.skip = o.quarantineUntil > now_ ||
                         r.inputKillPending(p, v);
            }
        }
        for (std::uint32_t ch = 0; ch < cfg_.injectionChannels;
             ++ch) {
            const PortId p = static_cast<PortId>(r.injBase() + ch);
            for (VcId v = 0; v < vcs; ++v) {
                AuditEdge& e = snap.edges[inj_idx(id, ch, v)];
                e.kind = AuditEdgeKind::Injection;
                e.node = id;
                e.port = ch;
                e.vc = v;
                e.credits = injectors_[id].slotCredits(ch, v);
                e.occupancy = r.inputOccupancy(p, v);
                e.skip = injectors_[id].slotInCooldown(ch, v) ||
                         r.inputKillPending(p, v);
            }
        }
        for (std::uint32_t ch = 0; ch < cfg_.ejectionChannels; ++ch) {
            const PortId p = static_cast<PortId>(r.ejBase() + ch);
            for (VcId v = 0; v < vcs; ++v) {
                AuditEdge& e = snap.edges[ej_idx(id, ch, v)];
                e.kind = AuditEdgeKind::Ejection;
                e.node = id;
                e.port = ch;
                e.vc = v;
                const Router::OutputProbe o = r.outputProbe(p, v);
                e.credits = o.credits;
                e.occupancy = receivers_[id].occupancy(ch, v);
                e.skip = o.quarantineUntil > now_;
            }
        }
    }

    // In-flight events still sitting in the delivery waves. Kill
    // tokens ride the control wires and consume no credits, so only
    // data flits count toward the ledgers.
    for (const Wave& w : buckets_) {
        for (const PendingFlit& p : w.flits) {
            if (!p.flit.isData())
                continue;
            ++snap.inFlightFlits;
            if (p.inPort < net_ports) {
                ++snap.edges[net_idx(p.node, p.inPort, p.vc)]
                      .inFlightFlits;
            } else {
                ++snap.edges[inj_idx(p.node,
                                     static_cast<std::uint32_t>(
                                         p.inPort - net_ports),
                                     p.vc)]
                      .inFlightFlits;
            }
        }
        for (const PendingRecvFlit& p : w.recvFlits) {
            if (!p.flit.isData())
                continue;
            ++snap.inFlightFlits;
            ++snap.edges[ej_idx(p.node, p.ejChannel, p.vc)]
                  .inFlightFlits;
        }
        for (const PendingCredit& c : w.credits) {
            if (c.outPort < net_ports) {
                const NodeId down = topo_->neighbor(c.node, c.outPort);
                if (down != kInvalidNode) {
                    ++snap.edges[net_idx(down,
                                         oppositePort(c.outPort),
                                         c.vc)]
                          .inFlightCredits;
                }
            } else {
                ++snap.edges[ej_idx(c.node,
                                    static_cast<std::uint32_t>(
                                        c.outPort - net_ports),
                                    c.vc)]
                      .inFlightCredits;
            }
        }
        for (const PendingInjCredit& c : w.injCredits)
            ++snap.edges[inj_idx(c.node, c.injChannel, c.vc)]
                  .inFlightCredits;
        // A kill/abort still in flight means its edge's ledger is
        // legitimately mid-teardown; skip those this sweep.
        for (const PendingBkill& b : w.bkills) {
            const NodeId down = topo_->neighbor(b.node, b.outPort);
            if (down != kInvalidNode) {
                snap.edges[net_idx(down, oppositePort(b.outPort),
                                   b.vc)]
                    .skip = true;
            }
        }
        for (const PendingAbort& a : w.aborts)
            snap.edges[inj_idx(a.node, a.injChannel, a.vc)].skip =
                true;
    }

    audit_->sweep(snap);
}

void
Network::run(Cycle n)
{
    for (Cycle i = 0; i < n; ++i)
        tick();
}

void
Network::attachProfiler(TickProfiler* prof)
{
    prof_ = prof;
    profTimed_ = false;
    if (prof == nullptr) {
        gaugeInjAwake_ = gaugeRtrAwake_ = gaugeRcvAwake_ = nullptr;
        gaugeWaveOcc_ = gaugeRngMessages_ = nullptr;
        histInjHeap_ = histRcvHeap_ = nullptr;
        return;
    }
    Telemetry& reg = Telemetry::instance();
    gaugeInjAwake_ = reg.gauge("sched.injectors_awake");
    gaugeRtrAwake_ = reg.gauge("sched.routers_awake");
    gaugeRcvAwake_ = reg.gauge("sched.receivers_awake");
    gaugeWaveOcc_ = reg.gauge("sched.wave_ring_occupancy");
    gaugeRngMessages_ = reg.gauge("rng.messages_generated");
    histInjHeap_ = reg.histogram("sched.injector_heap_size");
    histRcvHeap_ = reg.histogram("sched.receiver_heap_size");
}

void
Network::sampleTelemetryGauges()
{
    std::uint64_t inj = 0, rtr = 0, rcv = 0;
    const NodeId n = topo_->numNodes();
    for (NodeId id = 0; id < n; ++id) {
        inj += injAwake_[id];
        rtr += rtrAwake_[id];
        rcv += rcvAwake_[id];
    }
    gaugeInjAwake_->store(inj, std::memory_order_relaxed);
    gaugeRtrAwake_->store(rtr, std::memory_order_relaxed);
    gaugeRcvAwake_->store(rcv, std::memory_order_relaxed);
    std::uint64_t occ = 0;
    for (const Wave& w : buckets_) {
        occ += w.flits.size() + w.recvFlits.size() + w.credits.size() +
               w.injCredits.size() + w.bkills.size() + w.aborts.size();
    }
    gaugeWaveOcc_->store(occ, std::memory_order_relaxed);
    gaugeRngMessages_->store(generator_->generatedCount(),
                             std::memory_order_relaxed);
    histInjHeap_->observe(injDeadlines_.size());
    histRcvHeap_->observe(rcvDeadlines_.size());
}

MsgId
Network::sendMessage(NodeId src, NodeId dst, std::uint32_t payload_len,
                     bool measured)
{
    if (src >= topo_->numNodes() || dst >= topo_->numNodes())
        fatal("sendMessage: node out of range");
    if (injectors_[src].queueFull())
        return kInvalidMsg;  // Before a pair sequence is allocated.
    PendingMessage m = generator_->makeMessage(src, dst, payload_len,
                                               now_, measured);
    injectors_[src].enqueue(m);
    wakeInjector(src);
    stats_.messagesGenerated.inc();
    if (ledger_ != nullptr)
        ledger_->onAccepted(m);
    if (measured) {
        stats_.messagesMeasured.inc();
        ++measuredCreated_;
    }
    manualPending_[m.id] = true;
    return m.id;
}

bool
Network::isDelivered(MsgId id) const
{
    return manualDelivered_.count(id) != 0;
}

const DeliveredMessage*
Network::deliveryRecord(MsgId id) const
{
    auto it = manualDelivered_.find(id);
    return it == manualDelivered_.end() ? nullptr : &it->second;
}

bool
Network::deadlocked() const
{
    if (quiescent())
        return false;
    return now_ - lastActivity_ > cfg_.deadlockThreshold;
}

bool
Network::quiescent() const
{
    for (const Wave& w : buckets_)
        if (!w.empty())
            return false;
    for (const Injector& inj : injectors_)
        if (!inj.idle())
            return false;
    for (const Router& r : routers_)
        if (!r.idle())
            return false;
    for (const Receiver& rcv : receivers_)
        if (!rcv.idle())
            return false;
    return true;
}

void
Network::dumpOccupancy(std::ostream& os) const
{
    os << "buffer occupancy at cycle " << now_ << " (flits per "
       << "router):\n";
    if (cfg_.dimensionsN == 2) {
        const std::uint32_t k = cfg_.radixK;
        // Row y printed top-down so the grid reads like a map.
        for (std::uint32_t yy = k; yy-- > 0;) {
            os << "  y=" << std::setw(2) << yy << " |";
            for (std::uint32_t xx = 0; xx < k; ++xx) {
                const NodeId id = xx + yy * k;
                os << std::setw(4) << routers_[id].bufferedFlits();
            }
            os << "\n";
        }
        return;
    }
    for (NodeId id = 0; id < topo_->numNodes(); ++id) {
        const std::uint64_t n = routers_[id].bufferedFlits();
        if (n > 0)
            os << "  node " << id << ": " << n << "\n";
    }
}

void
Network::dumpForensics(std::ostream& os) const
{
    os << "=== forensics at cycle " << now_ << " (last activity "
       << lastActivity_ << ") ===\n";

    const auto dead = faults_->deadLinks();
    os << "dead links (" << dead.size() << "):\n";
    for (const DeadLink& d : dead) {
        os << "  node " << d.node << " port " << d.port << " ("
           << (d.kind == DeadLinkKind::Bidirectional ? "bidirectional"
                                                     : "directed")
           << ")\n";
    }

    // Stuck input VCs, and the oldest blocked header (the worm most
    // likely anchoring a dependency cycle).
    NodeId oldest_node = kInvalidNode;
    PortId oldest_port = kInvalidPort;
    Cycle oldest_at = now_;
    os << "non-idle input VCs:\n";
    const NodeId n = topo_->numNodes();
    for (NodeId id = 0; id < n; ++id) {
        const Router& r = routers_[id];
        for (PortId p = 0; p < r.numInPorts(); ++p) {
            for (VcId v = 0; v < cfg_.numVcs; ++v) {
                const Router::InputProbe ip = r.inputProbe(p, v);
                if (ip.state == Router::VcState::Idle &&
                    ip.buffered == 0 && !ip.killPending) {
                    continue;
                }
                os << "  node " << id << " in " << p << " vc "
                   << static_cast<int>(v) << ": "
                   << (ip.state == Router::VcState::Active
                           ? "Active"
                           : ip.state == Router::VcState::Routing
                                 ? "Routing"
                                 : "Idle")
                   << " msg " << ip.msg << " attempt " << ip.attempt
                   << " buffered " << ip.buffered << " stall "
                   << ip.stallCycles;
                if (ip.killPending)
                    os << " kill-pending";
                if (ip.state == Router::VcState::Active) {
                    os << " -> out " << ip.outPort << " vc "
                       << static_cast<int>(ip.outVc);
                }
                os << " (head at " << ip.headArrivedAt << ")\n";
                if (ip.state == Router::VcState::Routing &&
                    ip.headArrivedAt < oldest_at) {
                    oldest_at = ip.headArrivedAt;
                    oldest_node = id;
                    oldest_port = p;
                }
            }
        }
    }
    if (oldest_node != kInvalidNode) {
        os << "oldest blocked header: node " << oldest_node << " in "
           << oldest_port << " waiting since " << oldest_at << "\n";
    }

    os << "active injector slots:\n";
    for (NodeId id = 0; id < n; ++id) {
        for (std::uint32_t ch = 0; ch < cfg_.injectionChannels; ++ch) {
            for (VcId v = 0; v < cfg_.numVcs; ++v) {
                const Injector::SlotProbe sp =
                    injectors_[id].slotProbe(ch, v);
                if (!sp.active)
                    continue;
                os << "  node " << id << " ch " << ch << " vc "
                   << static_cast<int>(v) << ": msg " << sp.msg
                   << " -> " << sp.dst << " attempt " << sp.attempt
                   << " seq " << sp.nextSeq << "/" << sp.wireLen
                   << " credits " << sp.credits << " stall "
                   << sp.stallCycles << "\n";
            }
        }
    }

    os << "open assemblies:\n";
    for (NodeId id = 0; id < n; ++id) {
        for (const Receiver::AssemblyProbe& ap :
             receivers_[id].openAssemblies()) {
            os << "  node " << id << ": msg " << ap.msg << " from "
               << ap.src << " attempt " << ap.attempt << " seq "
               << ap.nextSeq << "/" << ap.payloadLen
               << " last flit at " << ap.lastFlitAt << "\n";
        }
    }

    dumpOccupancy(os);
}

bool
Network::measuredDrained() const
{
    return stats_.measuredDelivered.value() +
               stats_.measuredFailed.value() >=
           measuredCreated_;
}

// --- Checkpoint/restore ------------------------------------------------
//
// Field order is the contract: one function writes and reads every
// field, and any change to it requires bumping kSnapshotVersion
// (docs/ROBUSTNESS.md).

template <typename Io>
void
Network::serialize(Io& io)
{
    // Shard Counter blocks are zero between ticks except when a
    // between-tick writer (injectFaultEvent's link teardown) bumped a
    // router counter. Folding them first makes the saved master block
    // match an unsharded run; on restore it empties the shard blocks,
    // whose counts belong to the abandoned timeline, before the
    // master block is overwritten.
    foldShardCounters();
    serializeStats(io, stats_);
    faults_->serialize(io);
    generator_->serialize(io);
    const NodeId n = topo_->numNodes();
    for (NodeId id = 0; id < n; ++id)
        routers_[id].serialize(io);
    for (NodeId id = 0; id < n; ++id)
        injectors_[id].serialize(io);
    for (NodeId id = 0; id < n; ++id)
        receivers_[id].serialize(io);

    // Wave buckets, in vector-index order; restoring now_ keeps the
    // (now_ + delay) & mask indexing consistent.
    fixedSize(io, buckets_.size(), "wave-bucket ring");
    for (Wave& wave : buckets_) {
        lengthPrefixed(io, wave.flits, [&io](PendingFlit& pf) {
            io.u32(pf.node);
            io.u16(pf.inPort);
            io.u16(pf.vc);
            serializeFlit(io, pf.flit);
            io.b(pf.networkHop);
        });
        lengthPrefixed(io, wave.recvFlits, [&io](PendingRecvFlit& pf) {
            io.u32(pf.node);
            io.u32(pf.ejChannel);
            io.u16(pf.vc);
            serializeFlit(io, pf.flit);
        });
        lengthPrefixed(io, wave.credits, [&io](PendingCredit& pc) {
            io.u32(pc.node);
            io.u16(pc.outPort);
            io.u16(pc.vc);
        });
        lengthPrefixed(io, wave.injCredits, [&io](PendingInjCredit& pc) {
            io.u32(pc.node);
            io.u32(pc.injChannel);
            io.u16(pc.vc);
        });
        lengthPrefixed(io, wave.bkills, [&io](PendingBkill& pb) {
            io.u32(pb.node);
            io.u16(pb.outPort);
            io.u16(pb.vc);
        });
        lengthPrefixed(io, wave.aborts, [&io](PendingAbort& pa) {
            io.u32(pa.node);
            io.u32(pa.injChannel);
            io.u16(pa.vc);
            io.u64(pa.msg);
        });
    }

    // Wake flags and deadline arrays.
    for (NodeId id = 0; id < n; ++id)
        io.u8(injAwake_[id]);
    for (NodeId id = 0; id < n; ++id)
        io.u8(rtrAwake_[id]);
    for (NodeId id = 0; id < n; ++id)
        io.u8(rcvAwake_[id]);
    for (NodeId id = 0; id < n; ++id)
        io.u64(injNextAt_[id]);
    for (NodeId id = 0; id < n; ++id)
        io.u64(rcvNextAt_[id]);

    io.u64(now_);
    io.b(trafficEnabled_);
    io.b(measuring_);
    io.u64(measuredCreated_);
    io.u64(lastActivity_);
    io.u64(lastActivityLevel_);
    io.b(forensicsDumped_);

    if constexpr (Io::kLoading) {
        // Rebuild the deadline heaps from the deduplicated nextAt
        // arrays: one live entry per sleeping component. The saved
        // run's stale heap entries are not reproduced — they pop as
        // no-op wakes, which cannot change state (sweep equivalence).
        injDeadlines_ = DeadlineHeap();
        rcvDeadlines_ = DeadlineHeap();
        for (NodeId id = 0; id < n; ++id)
            if (injNextAt_[id] != kNeverCycle)
                injDeadlines_.push({injNextAt_[id], id});
        for (NodeId id = 0; id < n; ++id)
            if (rcvNextAt_[id] != kNeverCycle)
                rcvDeadlines_.push({rcvNextAt_[id], id});
        dueEvents_.clear();
    }

    io.b(dynamicFaults_);
    bool hasSchedule = schedule_ != nullptr;
    io.b(hasSchedule);
    if constexpr (Io::kLoading) {
        // Runtime-armed dynamic faults (injectFaultEvent) may have
        // created a schedule the config alone would not.
        if (!hasSchedule)
            schedule_.reset();
        else if (schedule_ == nullptr)
            schedule_ = std::make_unique<FaultSchedule>();
    }
    if (hasSchedule)
        schedule_->serialize(io);

    if (optionalBlock(io, ledger_, "ledger"))
        warn("snapshot carries a delivery ledger but none is "
             "attached; skipping it");

    fixedFlag(io, audit_ != nullptr, "audit-build");
#if CRNET_AUDIT_ENABLED
    if (audit_ != nullptr)
        audit_->serialize(io);
#endif

    // A block: the restore side may legitimately run without a tracer
    // (traceFile is excluded from the fingerprint) and then skips it.
    optionalBlock(io, trace_.get(), "tracer");

    fixedFlag(io, timeseries_ != nullptr,
              "timeseries presence (sample_interval is fingerprinted)");
    if (timeseries_ != nullptr)
        timeseries_->serialize(io);

    sortedByKey(io, manualDelivered_, [&io](auto& entry) {
        DeliveredMessage& d = entry.second;
        io.u64(entry.first);
        io.u64(d.id);
        io.u32(d.src);
        io.u32(d.dst);
        io.u32(d.payloadLen);
        io.u32(d.pairSeq);
        io.u64(d.createdAt);
        io.u64(d.headInjectedAt);
        io.u64(d.deliveredAt);
        io.u16(d.attempts);
        io.b(d.measured);
        io.b(d.corrupted);
    });
    sortedByKey(io, manualPending_, [&io](auto& entry) {
        io.u64(entry.first);
        io.b(entry.second);
    });
}

template void Network::serialize(StateWriter&);
template void Network::serialize(StateReader&);

void
Network::reseedStreams(std::uint64_t seed)
{
    // Exactly the constructor's fork order (the schedule fork is
    // deliberately skipped: a warm-started measure phase keeps the
    // restored fault timeline).
    Rng root(seed);
    faults_->setRng(root.fork());
    generator_->setRng(root.fork());
    const NodeId n = topo_->numNodes();
    for (NodeId id = 0; id < n; ++id) {
        routers_[id].setRng(root.fork());
        injectors_[id].setRng(root.fork());
    }
}

} // namespace crnet
