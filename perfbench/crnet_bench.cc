/**
 * @file
 * crnet's benchmark harness: four fixed workloads, host-throughput
 * and simulated-result metrics, a correctness check of the simulated
 * results, and a traced mode that reports per-layer numbers.
 *
 * Every measurement is taken from outside the library, by timing
 * calls into its public API (Network ctor, Network::run/tick,
 * summarize, runCampaign, captureSnapshot/restoreSnapshot) and by
 * reading counters it already exposes (NetworkStats, RunResult,
 * CampaignSummary/TrialOutcome, the TickProfiler and the telemetry
 * registry). Nothing in src/ is instrumented for the benchmark.
 *
 * Usage (run.py builds this binary and passes these through):
 *   crnet_bench --workload NAME --seed N --seconds S --trace 0|1
 *               [--expect-digest HEX] [--spans PATH] [--commit REV]
 *
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics. The exit code is non-zero
 * when any correctness check fails.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/experiment.hh"
#include "src/core/network.hh"
#include "src/fault/campaign.hh"
#include "src/sim/parallel.hh"
#include "src/sim/snapshot.hh"
#include "src/sim/telemetry.hh"

namespace {

using namespace crnet;
using Clock = std::chrono::steady_clock;

/** Shard count of the byte-identity twin of an unsharded workload. */
constexpr unsigned kTwinShards = 4;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** First quartile of a sample, interpolated between order statistics. */
double
lowerQuartile(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = 0.25 * static_cast<double>(v.size() - 1);
    const std::size_t i = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(i);
    return i + 1 < v.size() ? v[i] + frac * (v[i + 1] - v[i]) : v[i];
}

/** Nearest-rank percentile of an unsorted sample. */
double
percentile(std::vector<std::uint64_t> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return static_cast<double>(v[std::max<std::size_t>(rank, 1) - 1]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Resident set size now, in kB (/proc/self/statm). */
long
currentRssKb()
{
    std::ifstream f("/proc/self/statm");
    long pages = 0, resident = 0;
    if (!(f >> pages >> resident))
        return 0;
    return resident * (sysconf(_SC_PAGESIZE) / 1024);
}

long
peakRssKb()
{
    struct rusage ru = {};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    return ru.ru_maxrss;  // Linux reports kilobytes.
}

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

// --- Result digest ------------------------------------------------------

/**
 * FNV-1a over every simulated statistic, field by field. Doubles are
 * hashed by bit pattern, so the digest tells byte-identical results
 * from merely close ones. Host-side fields (wallSeconds, profile,
 * resumedTrials) are left out: they differ from run to run.
 */
class Digest
{
  public:
    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }
    void add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
    void add(bool v) { add(std::uint64_t{v ? 1u : 0u}); }

    void add(const RunResult& r)
    {
        for (const double v :
             {r.offeredLoad, r.acceptedThroughput, r.avgLatency,
              r.netLatency, r.p50Latency, r.p95Latency, r.p99Latency,
              r.maxLatency, r.latencyStddev, r.avgAttempts,
              r.killsPerMessage, r.padOverhead})
            add(v);
        for (const std::uint64_t v :
             {r.measuredMessages, r.deliveredMeasured, r.totalKills,
              r.pathWideKills, r.escapeAllocations, r.misrouteHops,
              r.corruptions, r.corruptedDeliveries, r.orderViolations,
              r.duplicateDeliveries, r.refusals, r.cyclesRun,
              r.latencyOverflow, r.flitEvents})
            add(v);
        add(r.deadlocked);
        add(r.drained);
    }

    void add(const CampaignSummary& s)
    {
        for (const std::uint64_t v :
             {std::uint64_t{s.trials}, std::uint64_t{s.accountedTrials},
              std::uint64_t{s.deadlockedTrials}, s.accepted, s.delivered,
              s.refused, s.pending, s.duplicates, s.faultEvents,
              s.maxRecoveryCycles, s.flitEvents,
              std::uint64_t{s.quarantinedTrials}})
            add(v);
        for (const double v : {s.deliveryRate, s.meanPreFaultLatency,
                               s.meanPostFaultLatency,
                               s.meanRecoveryCycles})
            add(v);
    }

    void add(const TrialOutcome& t)
    {
        for (const std::uint64_t v :
             {std::uint64_t{t.trial}, t.seed, t.accepted, t.delivered,
              t.refused, t.pendingAtEnd, t.duplicates, t.faultEvents,
              t.flitsLost, t.receiverTimeouts, t.firstFaultAt,
              t.recoveryCycles, t.cyclesRun, t.flitEvents,
              std::uint64_t{t.budgetRetries}})
            add(v);
        add(t.preFaultLatency);
        add(t.postFaultLatency);
        add(t.deadlocked);
        add(t.fullyAccounted);
        add(t.quarantined);
    }

    std::string hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// --- Spans ---------------------------------------------------------------

/**
 * In-memory span log of one traced run: name, start, end, parent span
 * and a run id shared by the spans of one unit of work. Written out
 * once, when the run ends.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
        int parent = -1;
        std::uint32_t run = 0;
    };

    /** Opens a span as a child of the innermost open one. */
    class Scope
    {
      public:
        Scope(SpanLog* log, const char* name) : log_(log)
        {
            if (log_ == nullptr)
                return;
            id_ = static_cast<int>(log_->spans_.size());
            log_->spans_.push_back(
                Span{name, nowNs(), 0,
                     log_->open_.empty() ? -1 : log_->open_.back(),
                     log_->run_});
            log_->open_.push_back(id_);
        }
        ~Scope()
        {
            if (log_ == nullptr)
                return;
            log_->spans_[id_].endNs = nowNs();
            log_->open_.pop_back();
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        SpanLog* log_;
        int id_ = -1;
    };

    void nextRun() { ++run_; }

    /** Per-name self time: duration minus what child spans cover. */
    std::map<std::string, double> selfSeconds() const
    {
        std::vector<std::uint64_t> child(spans_.size(), 0);
        for (const Span& s : spans_)
            if (s.parent >= 0)
                child[s.parent] += s.endNs - s.startNs;
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            out[s.name] +=
                static_cast<double>(s.endNs - s.startNs - child[i]) * 1e-9;
        }
        return out;
    }

    bool write(const std::string& path, const std::string& env) const
    {
        std::ofstream f(path);
        if (!f)
            return false;
        f << "{\"env\": " << env << ",\n \"spans\": [";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            f << (i == 0 ? "\n  " : ",\n  ") << "{\"id\": " << i
              << ", \"name\": " << jsonString(s.name)
              << ", \"start_ns\": " << s.startNs
              << ", \"end_ns\": " << s.endNs
              << ", \"parent\": " << s.parent << ", \"run\": " << s.run
              << "}";
        }
        f << "\n ]}\n";
        return static_cast<bool>(f);
    }

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
    std::uint32_t run_ = 0;
};

// --- Workloads -----------------------------------------------------------

struct Workload
{
    std::string name;
    SimConfig cfg;
    /** > 0: an FCR campaign of this many trials through runCampaign. */
    std::uint32_t trials = 0;
    /** Timed constructions before each untraced unit (setup_s). */
    int setupRepeats = 0;
};

/** k-ary 2-cube, CR, minimal-adaptive routing, uniform traffic. */
SimConfig
torus(std::uint32_t k, double load, std::uint64_t seed)
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
    cfg.timeout = 8;  // Message length / VCs, the paper's setting.
    cfg.injectionRate = load;
    cfg.seed = seed;
    cfg.jobs = 1;
    cfg.shards = 1;
    cfg.drainCycles = 60000;
    return cfg;
}

std::optional<Workload>
makeWorkload(const std::string& name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    if (name == "torus256_low") {
        w.cfg = torus(16, 0.02, seed);
        w.cfg.warmupCycles = 1000;
        w.cfg.measureCycles = 12000;
        w.setupRepeats = 5;
    } else if (name == "torus256_sat") {
        w.cfg = torus(16, 0.3, seed);
        w.cfg.warmupCycles = 1000;
        w.cfg.measureCycles = 2000;
        // Past saturation the measured messages never all drain while
        // load stays applied; a short drain keeps the work fixed.
        w.cfg.drainCycles = 1000;
        w.setupRepeats = 5;
    } else if (name == "torus4k_shards4") {
        w.cfg = torus(64, 0.05, seed);
        w.cfg.shards = 4;
        // Load 0.05 is past this network's saturation at timeout 8 (kills
        // grow with the 32-hop mean path), so, as in
        // bench_tab_giant_scale, a short fixed window stands for the run.
        w.cfg.warmupCycles = 200;
        w.cfg.measureCycles = 200;
        w.cfg.drainCycles = 600;
        w.setupRepeats = 2;
    } else if (name == "fcr_faults") {
        // bench_campaign_dynamic's base config plus a small transient
        // corruption rate, so the receiver's checksum/refusal path runs.
        w.cfg = torus(8, 0.15, seed);
        w.cfg.protocol = ProtocolKind::Fcr;
        w.cfg.timeout = 32;
        w.cfg.maxRetries = 0;
        w.cfg.misrouteAfterRetries = 1;
        w.cfg.misrouteBudget = 4;
        w.cfg.dynamicLinkKills = 2;
        w.cfg.transientFaultRate = 1e-4;
        w.cfg.warmupCycles = 1000;
        w.cfg.measureCycles = 5000;
        w.trials = 2;
        w.setupRepeats = 5;
    } else {
        return std::nullopt;
    }
    return w;
}

// --- Units of work ---------------------------------------------------------

/** Per-layer counts read from NetworkStats at the end of a unit. */
struct LayerCounts
{
    std::uint64_t flitsForwarded = 0, headersRouted = 0, killHops = 0,
                  flitsPurged = 0, misrouteHops = 0;
    std::uint64_t generated = 0, drops = 0, delivered = 0,
                  flitsInjected = 0, padInjected = 0, kills = 0;
    std::uint64_t refusals = 0, receiverTimeouts = 0, staleFlits = 0;
    std::uint64_t faultEvents = 0, flitsLost = 0;

    static LayerCounts from(const NetworkStats& s)
    {
        LayerCounts c;
        c.flitsForwarded = s.router.flitsForwarded.value();
        c.headersRouted = s.router.headersRouted.value();
        c.killHops =
            s.router.killsForwarded.value() + s.router.bkillHops.value();
        c.flitsPurged = s.router.flitsPurged.value();
        c.misrouteHops = s.router.misrouteHops.value();
        c.generated = s.messagesGenerated.value();
        c.drops = s.sourceQueueDrops.value();
        c.delivered = s.messagesDelivered.value();
        c.flitsInjected = s.flitsInjected.value();
        c.padInjected = s.padFlitsInjected.value();
        c.kills = s.sourceKills.value() + s.router.pathWideKills.value();
        c.refusals = s.refusals.value();
        c.receiverTimeouts = s.receiverTimeouts.value();
        c.staleFlits = s.staleAttemptFlits.value();
        c.faultEvents = s.faultEventsApplied.value();
        c.flitsLost = s.flitsLostOnDeadLinks.value();
        return c;
    }
};

/** What the traced variant of a unit measures on top of the result. */
struct TraceData
{
    ProfileData profile;
    std::vector<std::uint64_t> tickNs;  //!< Measure-window ticks.
    double captureMs = 0.0, restoreMs = 0.0;
    std::size_t snapshotBytes = 0;
    bool snapshotRoundTrip = true;
    double barrierWaitS = 0.0;
    double shardImbalance = 0.0;
};

/** One simulated run (or campaign) and its host timing. */
struct Unit
{
    RunResult result;
    LayerCounts counts;
    std::string digest;
    std::vector<std::string> violations;
    double warmupS = 0.0, measureS = 0.0, drainS = 0.0;
    double hostS = 0.0;  //!< Host seconds of simulation, set-up excluded.
    std::uint64_t flitEvents = 0;
    double nodeCycles = 0.0;
    std::uint32_t attempted = 1;  //!< Runs or trials in this unit.
    std::uint32_t failed = 0;
    // Campaign units only.
    CampaignSummary summary;
    std::vector<TrialOutcome> trialRows;
};

std::uint64_t
registryValue(const std::string& name)
{
    for (const MetricSample& m : Telemetry::instance().snapshot())
        if (m.name == name)
            return m.value;
    return 0;
}

/** max/mean of the per-shard tick gauges (0 when unsharded). */
double
shardImbalance(unsigned shards)
{
    if (shards < 2)
        return 0.0;
    double max = 0.0, sum = 0.0;
    for (unsigned s = 0; s < shards; ++s) {
        const double v = static_cast<double>(
            registryValue("sched.shard_ticks." + std::to_string(s)));
        max = std::max(max, v);
        sum += v;
    }
    return ratio(max, sum / shards);
}

std::vector<std::string>
runViolations(const RunResult& r, bool fcr)
{
    std::vector<std::string> v;
    if (r.deadlocked)
        v.push_back("deadlock");
    if (fcr && r.orderViolations != 0)
        v.push_back("order violations");
    if (fcr && r.duplicateDeliveries != 0)
        v.push_back("duplicate deliveries");
    if (fcr && r.corruptedDeliveries != 0)
        v.push_back("corrupted deliveries");
    return v;
}

/** How a driven network runs its phases. */
enum class Phases
{
    /** runExperiment: load stays on; drain until measured delivered. */
    Experiment,
    /** One runCampaign trial: ledger on; load off after measure. */
    CampaignTrial,
};

/** Snapshot at end of warmup, restored into a freshly built twin. */
void
snapshotRoundTrip(const Network& net, const SimConfig& cfg, bool ledger,
                  SpanLog* spans, TraceData& trace)
{
    Snapshot snap;
    {
        const SpanLog::Scope s(spans, "sim.captureSnapshot");
        const auto t0 = Clock::now();
        snap = captureSnapshot(net);
        trace.captureMs =
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();
    }
    trace.snapshotBytes = snap.payload.size();
    std::optional<Network> twin;
    {
        const SpanLog::Scope s(spans, "core.Network");
        twin.emplace(cfg);
    }
    DeliveryLedger twin_ledger;
    if (ledger)
        twin->attachLedger(&twin_ledger);
    std::string err;
    {
        const SpanLog::Scope s(spans, "sim.restoreSnapshot");
        const auto t0 = Clock::now();
        err = restoreSnapshot(*twin, snap);
        trace.restoreMs =
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();
    }
    trace.snapshotRoundTrip =
        err.empty() && captureSnapshot(*twin).payload == snap.payload;
}

/**
 * Warmup, measure and drain over a freshly built network, by the same
 * public calls and in the same order as runExperiment() or one
 * runCampaign() trial, timing each phase. With `trace` set it also
 * attaches the TickProfiler, times every measure-window tick, and
 * round-trips a snapshot taken at the end of warmup.
 */
Unit
driveNetwork(const SimConfig& cfg, Phases phases, Cycle drain_cap,
             SpanLog* spans, TraceData* trace)
{
    const SpanLog::Scope unit_span(spans, "unit");
    const bool trial = phases == Phases::CampaignTrial;
    std::optional<Network> holder;
    {
        const SpanLog::Scope s(spans, "core.Network");
        holder.emplace(cfg);
    }
    Network& net = *holder;
    DeliveryLedger ledger;
    if (trial)
        net.attachLedger(&ledger);
    TickProfiler prof;
    if (trace != nullptr)
        net.attachProfiler(&prof);
    const std::uint64_t barrier0 =
        registryValue("sched.shard_barrier_wait_nanos");

    Unit u;
    auto t0 = Clock::now();
    {
        const SpanLog::Scope s(spans, "core.run.warmup");
        net.setMeasuring(false);
        net.run(cfg.warmupCycles);
    }
    u.warmupS = std::chrono::duration<double>(Clock::now() - t0).count();
    if (trace != nullptr)
        snapshotRoundTrip(net, cfg, trial, spans, *trace);

    t0 = Clock::now();
    {
        const SpanLog::Scope s(spans, "core.run.measure");
        net.setMeasuring(true);
        if (trace != nullptr) {
            trace->tickNs.reserve(cfg.measureCycles);
            for (Cycle c = 0; c < cfg.measureCycles; ++c) {
                const std::uint64_t k0 = nowNs();
                net.tick();
                trace->tickNs.push_back(nowNs() - k0);
            }
        } else {
            net.run(cfg.measureCycles);
        }
        net.setMeasuring(false);
        if (trial)
            net.setTrafficEnabled(false);
    }
    u.measureS = std::chrono::duration<double>(Clock::now() - t0).count();

    // runExperiment drains in 256-cycle steps until every measured
    // message is accounted for; a campaign trial in 64-cycle steps
    // until the network is quiescent. Both clamp the last step.
    t0 = Clock::now();
    const Cycle quantum = trial ? 64 : 256;
    const auto done = [&] {
        return trial ? net.quiescent() : net.measuredDrained();
    };
    {
        const SpanLog::Scope s(spans, "core.run.drain");
        Cycle spent = 0;
        while (!done() && !net.deadlocked() && spent < drain_cap) {
            const Cycle step = std::min(quantum, drain_cap - spent);
            net.run(step);
            spent += step;
        }
    }
    u.drainS = std::chrono::duration<double>(Clock::now() - t0).count();
    u.hostS = u.warmupS + u.measureS + u.drainS;

    {
        const SpanLog::Scope s(spans, "core.summarize");
        u.result = summarize(net, net.measuredDrained(), net.now());
    }
    u.counts = LayerCounts::from(net.stats());
    u.flitEvents = u.result.flitEvents;
    u.nodeCycles = static_cast<double>(u.result.cyclesRun) *
                   static_cast<double>(net.topology().numNodes());
    if (trace != nullptr) {
        trace->profile = prof.data();
        trace->profile.warmupSeconds = u.warmupS;
        trace->profile.measureSeconds = u.measureS;
        trace->profile.drainSeconds = u.drainS;
        trace->barrierWaitS =
            static_cast<double>(
                registryValue("sched.shard_barrier_wait_nanos") -
                barrier0) *
            1e-9;
        trace->shardImbalance = shardImbalance(resolveShards(cfg.shards));
    }
    if (trial) {
        // The ledger fields runCampaign's row for this trial must match.
        TrialOutcome row;
        row.accepted = ledger.accepted();
        row.delivered = ledger.delivered();
        row.refused = ledger.refused();
        row.pendingAtEnd = ledger.pending();
        row.duplicates = ledger.duplicates();
        row.cyclesRun = net.now();
        row.flitEvents = u.flitEvents;
        u.trialRows.push_back(row);
    }
    Digest d;
    d.add(u.result);
    u.digest = d.hex();
    u.violations =
        runViolations(u.result, cfg.protocol == ProtocolKind::Fcr);
    u.failed = u.violations.empty() ? 0 : 1;
    return u;
}

CampaignConfig
campaignConfig(const Workload& w, bool profiled)
{
    CampaignConfig cc;
    cc.base = w.cfg;
    cc.base.profileEnabled = profiled;
    cc.trials = w.trials;
    cc.seedBase = w.cfg.seed;
    return cc;
}

/** One runCampaign call; per-trial invariants feed `failed`. */
Unit
runCampaignUnit(const Workload& w, SpanLog* spans, TraceData* trace)
{
    const SpanLog::Scope unit_span(spans, "unit");
    Unit u;
    const CampaignConfig cc = campaignConfig(w, trace != nullptr);
    const auto t0 = Clock::now();
    {
        const SpanLog::Scope s(spans, "fault.runCampaign");
        u.summary = runCampaign(cc, &u.trialRows);
    }
    u.hostS = std::chrono::duration<double>(Clock::now() - t0).count();
    if (trace != nullptr)
        trace->profile = u.summary.profile;
    u.flitEvents = u.summary.flitEvents;
    const double nodes = static_cast<double>(w.cfg.numNodes());
    for (const TrialOutcome& t : u.trialRows) {
        u.nodeCycles += static_cast<double>(t.cyclesRun) * nodes;
        if (!t.fullyAccounted || t.deadlocked || t.quarantined ||
            t.pendingAtEnd != 0 || t.duplicates != 0)
            ++u.failed;
    }
    u.attempted = w.trials;
    const CampaignSummary& s = u.summary;
    if (s.accountedTrials != s.trials)
        u.violations.push_back("unaccounted trials");
    if (s.pending != 0)
        u.violations.push_back("pending messages");
    if (s.duplicates != 0)
        u.violations.push_back("duplicate deliveries");
    if (s.deadlockedTrials != 0)
        u.violations.push_back("deadlocked trials");
    if (s.quarantinedTrials != 0)
        u.violations.push_back("quarantined trials");
    Digest d;
    d.add(s);
    for (const TrialOutcome& t : u.trialRows)
        d.add(t);
    u.digest = d.hex();
    return u;
}

// --- Options ---------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string expectDigest;  //!< "" = digest unchecked.
    std::string spansPath;
    std::string commit = "unknown";
};

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "crnet_bench: %s\nusage: crnet_bench --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--expect-digest HEX] "
                 "[--spans PATH] [--commit REV]\n",
                 why);
    std::exit(2);
}

Options
parseOptions(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string val = argv[++i];
        char* end = nullptr;
        if (key == "--workload") {
            o.workload = val;
        } else if (key == "--seed") {
            o.seed = std::strtoull(val.c_str(), &end, 10);
        } else if (key == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
            if (!(o.seconds > 0.0))
                usage("--seconds must be positive");
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
            o.trace = val == "1";
        } else if (key == "--expect-digest") {
            o.expectDigest = val;
        } else if (key == "--spans") {
            o.spansPath = val;
        } else if (key == "--commit") {
            o.commit = val;
        } else {
            usage(("unknown option " + key).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("malformed number for " + key).c_str());
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

// --- Metrics ---------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

std::string
environmentJson(const Options& o, const Workload& w)
{
    std::ostringstream os;
    os << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
       << ", \"compiler\": " << jsonString(BENCH_COMPILER)
       << ", \"build_type\": " << jsonString(BENCH_BUILD_TYPE)
       << ", \"cxx_flags\": " << jsonString(BENCH_CXX_FLAGS)
       << ", \"crnet_audit\": " << (CRNET_AUDIT_ENABLED ? "true" : "false")
       << ", \"cpu_model\": " << jsonString(cpuModel())
       << ", \"git_commit\": " << jsonString(o.commit)
       << ", \"workload\": " << jsonString(w.name)
       << ", \"seed\": " << o.seed
       << ", \"nodes\": " << w.cfg.numNodes()
       << ", \"shards\": " << resolveShards(w.cfg.shards)
       << ", \"jobs\": " << resolveJobs(w.cfg.jobs) << "}";
    return os.str();
}

/**
 * Medians of the traced units' per-layer timings (0 without traces),
 * and the exact counts, which every unit of a run shares. The
 * sim.parallel.* numbers come from `sharded`: the traced units of a
 * sharded workload, or the sharded twin of an unsharded one.
 */
std::vector<Metric>
layerMetrics(const Workload& w, const std::vector<Unit>& timed,
             const std::vector<TraceData>& traces,
             const std::vector<TraceData>& sharded,
             double accounted_trials, double kb_per_node, double overhead)
{
    const auto med_of = [](const std::vector<TraceData>& set, auto&& f) {
        std::vector<double> v;
        for (const TraceData& t : set)
            v.push_back(f(t));
        return median(v);
    };
    const auto med = [&](auto&& f) { return med_of(traces, f); };
    const auto phase = [&](TickPhase p) {
        return med([p](const TraceData& t) {
            return t.profile.tickSeconds(p);
        });
    };
    std::vector<std::uint64_t> ticks;
    for (const TraceData& t : traces)
        ticks.insert(ticks.end(), t.tickNs.begin(), t.tickNs.end());
    std::vector<double> warm, meas, drain;
    for (const Unit& u : timed) {
        warm.push_back(u.warmupS);
        meas.push_back(u.measureS);
        drain.push_back(u.drainS);
    }
    const LayerCounts& c = timed.front().counts;
    const RunResult& r = timed.front().result;
    const double router_s = phase(TickPhase::Routers);
    const double serial_share = med_of(sharded, [](const TraceData& t) {
        double all = 0.0;
        for (std::size_t p = 0; p < kNumTickPhases; ++p)
            all += t.profile.tickSeconds(static_cast<TickPhase>(p));
        return ratio(t.profile.tickSeconds(TickPhase::Deliver) +
                         t.profile.tickSeconds(TickPhase::Generate) +
                         t.profile.tickSeconds(TickPhase::Audit),
                     all);
    });
    const double nodes = static_cast<double>(w.cfg.numNodes());
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    return {
        {"core.tick_ns_p50", percentile(ticks, 0.50), "ns"},
        {"core.tick_ns_p99", percentile(ticks, 0.99), "ns"},
        {"core.deliver_s", phase(TickPhase::Deliver), "s"},
        {"core.warmup_s", median(warm), "s"},
        {"core.measure_s", median(meas), "s"},
        {"core.drain_s", median(drain), "s"},
        {"core.cycles", d(r.cyclesRun), "cycles"},
        {"core.flit_events", d(r.flitEvents), "count"},
        {"core.kb_per_node", kb_per_node, "kB/node"},
        {"router.self_s", router_s, "s"},
        {"router.ns_per_flit_forwarded",
         ratio(router_s * 1e9, d(c.flitsForwarded)), "ns"},
        {"router.flits_forwarded", d(c.flitsForwarded), "count"},
        {"router.headers_routed", d(c.headersRouted), "count"},
        {"router.kill_hops", d(c.killHops), "count"},
        {"router.flits_purged", d(c.flitsPurged), "count"},
        {"nic.injector_self_s", phase(TickPhase::Injectors), "s"},
        {"nic.kills_per_message", ratio(d(c.kills), d(c.generated)),
         "ratio"},
        {"nic.attempts_per_message", r.avgAttempts, "ratio"},
        {"nic.pad_fraction", ratio(d(c.padInjected), d(c.flitsInjected)),
         "ratio"},
        {"nic.useful_flit_ratio",
         ratio(d(c.delivered) * w.cfg.messageLength, d(c.flitsInjected)),
         "ratio"},
        {"nic.receiver_self_s", phase(TickPhase::Receivers), "s"},
        {"nic.refusals", d(c.refusals), "count"},
        {"nic.receiver_timeouts", d(c.receiverTimeouts), "count"},
        {"nic.stale_attempt_flits", d(c.staleFlits), "count"},
        {"traffic.generate_s", phase(TickPhase::Generate), "s"},
        {"traffic.messages_generated", d(c.generated), "count"},
        {"traffic.source_queue_drop_ratio",
         ratio(d(c.drops), d(c.generated + c.drops)), "ratio"},
        {"routing.misroute_hops", d(c.misrouteHops), "count"},
        {"fault.events_applied", d(c.faultEvents), "count"},
        {"fault.flits_lost", d(c.flitsLost), "count"},
        {"fault.accounted_trial_ratio", accounted_trials, "ratio"},
        {"sim.parallel.barrier_wait_s",
         med_of(sharded, [](const TraceData& t) { return t.barrierWaitS; }),
         "s"},
        {"sim.parallel.shard_imbalance",
         med_of(sharded,
                [](const TraceData& t) { return t.shardImbalance; }),
         "ratio"},
        {"sim.parallel.serial_share", serial_share, "ratio"},
        {"sim.audit_s", phase(TickPhase::Audit), "s"},
        {"sim.snapshot.capture_ms",
         med([](const TraceData& t) { return t.captureMs; }), "ms"},
        {"sim.snapshot.restore_ms",
         med([](const TraceData& t) { return t.restoreMs; }), "ms"},
        {"sim.snapshot.bytes_per_node",
         med([&](const TraceData& t) {
             return static_cast<double>(t.snapshotBytes) / nodes;
         }),
         "B/node"},
        {"trace.overhead_ratio", overhead, "ratio"},
    };
}

/**
 * Self time per layer over the traced units: span self times, with
 * the time inside Network::run/runCampaign split by the TickProfiler's
 * phases (routers, injectors+receivers, generation, audit+sampling);
 * the rest of the run time, construction and summarize stay in core.
 */
std::map<std::string, double>
layerSelfSeconds(const SpanLog& spans, const std::vector<TraceData>& traces)
{
    std::map<std::string, double> self = spans.selfSeconds();
    ProfileData p;
    for (const TraceData& t : traces)
        p.merge(t.profile);
    const auto sec = [&](TickPhase ph) { return p.tickSeconds(ph); };
    std::map<std::string, double> layer;
    layer["router"] = sec(TickPhase::Routers);
    layer["nic"] = sec(TickPhase::Injectors) + sec(TickPhase::Receivers);
    layer["traffic"] = sec(TickPhase::Generate);
    layer["sim"] = sec(TickPhase::Audit) + sec(TickPhase::Sample) +
                   self["sim.captureSnapshot"] +
                   self["sim.restoreSnapshot"];
    const double run = self["core.run.warmup"] + self["core.run.measure"] +
                       self["core.run.drain"] + self["fault.runCampaign"];
    layer["core"] = run - layer["router"] - layer["nic"] -
                    layer["traffic"] - sec(TickPhase::Audit) -
                    sec(TickPhase::Sample) + self["core.Network"] +
                    self["core.summarize"] + self["unit"];
    return layer;
}

void
printMetrics(const char* title, const std::vector<Metric>& metrics)
{
    std::printf("%s\n", title);
    for (const Metric& m : metrics)
        std::printf("  %-34s %18.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

std::string
resultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric>& metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        os << (i == 0 ? "" : ", ") << jsonString(m.name)
           << ": {\"value\": " << jsonNumber(m.value)
           << ", \"unit\": " << jsonString(m.unit) << "}";
    }
    os << "}}";
    return os.str();
}

} // namespace

int
main(int argc, char** argv)
{
    const Options opt = parseOptions(argc, argv);
    const std::optional<Workload> found =
        makeWorkload(opt.workload, opt.seed);
    if (!found)
        usage(("unknown workload " + opt.workload).c_str());
    const Workload& w = *found;
    const bool campaign = w.trials > 0;
    const std::string env = environmentJson(opt, w);
    std::printf("crnet benchmark: workload %s, seed %llu, %g s, trace %d\n",
                w.name.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0);
    std::printf("env: %s\n", env.c_str());
    std::fflush(stdout);

    // Set-up: the median of timed constructions, a few before every
    // untraced unit so the sample spans the whole run. The first one,
    // in a fresh process, also gives the resident memory per node.
    std::vector<double> setup;
    double kb_per_node = 0.0;
    const auto time_setup = [&](int repeats) {
        for (int i = 0; i < repeats; ++i) {
            const long rss0 = currentRssKb();
            const auto t0 = Clock::now();
            const Network net(w.cfg);
            setup.push_back(
                std::chrono::duration<double>(Clock::now() - t0).count());
            if (setup.size() == 1)
                kb_per_node = static_cast<double>(currentRssKb() - rss0) /
                              static_cast<double>(w.cfg.numNodes());
        }
    };

    // Measured loop: whole units of fixed simulated work until the time
    // is up. A traced run interleaves untraced and traced units, so the
    // tracing overhead is measured under the same conditions.
    SpanLog span_log;
    SpanLog* spans = opt.trace ? &span_log : nullptr;
    std::vector<Unit> units, traced;
    std::vector<TraceData> traces;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(opt.seconds));
    do {
        time_setup(w.setupRepeats);
        units.push_back(campaign ? runCampaignUnit(w, nullptr, nullptr)
                                 : driveNetwork(w.cfg, Phases::Experiment,
                                                w.cfg.drainCycles,
                                                nullptr, nullptr));
        if (opt.trace) {
            span_log.nextRun();
            TraceData t;
            traced.push_back(
                campaign ? runCampaignUnit(w, spans, &t)
                         : driveNetwork(w.cfg, Phases::Experiment,
                                        w.cfg.drainCycles, spans, &t));
            traces.push_back(std::move(t));
        }
    } while (Clock::now() < deadline);
    // Before the reference runs below, whose sharded twin adds threads.
    const double peak_rss_mb = static_cast<double>(peakRssKb()) / 1024.0;

    // Correctness. Every unit must hold the invariants and reproduce
    // the first unit's digest (traced ones included: the profiler and
    // tick timing stay off the results path), which must match the
    // recorded digest when there is one.
    std::vector<std::string> failures;
    const std::string digest = units.front().digest;
    std::uint64_t attempted = 0, failed = 0;
    for (const std::vector<Unit>* set : {&units, &traced}) {
        for (const Unit& u : *set) {
            attempted += u.attempted;
            const bool wrong =
                u.digest != digest ||
                (!opt.expectDigest.empty() && u.digest != opt.expectDigest);
            failed += wrong ? u.attempted : u.failed;
            for (const std::string& v : u.violations)
                if (std::find(failures.begin(), failures.end(),
                              "invariant: " + v) == failures.end())
                    failures.push_back("invariant: " + v);
        }
    }
    if (!opt.expectDigest.empty() && digest != opt.expectDigest)
        failures.push_back("digest " + digest + " != expected " +
                           opt.expectDigest);
    for (const Unit& u : traced)
        if (u.digest != digest)
            failures.push_back("traced digest " + u.digest +
                               " != untraced " + digest);
    for (const Unit& u : units)
        if (u.digest != digest)
            failures.push_back("nondeterministic digest " + u.digest);

    // Reference runs, outside the timed loop. A simulated run must equal
    // runExperiment() of the same config at shards=1, which checks both
    // this harness's phase driving and shard byte-identity. A campaign's
    // trial 0 replayed through the Network API must match its row, and
    // gives the campaign's simulated latency and throughput.
    Unit probe;
    std::vector<TraceData> probe_traces;
    std::vector<Unit> probe_timed;
    if (campaign) {
        SimConfig cfg = campaignConfig(w, false).base;
        const Cycle cap = CampaignConfig{}.drainCap;
        probe = driveNetwork(cfg, Phases::CampaignTrial, cap, nullptr,
                             nullptr);
        const TrialOutcome& want = units.front().trialRows.front();
        const TrialOutcome& got = probe.trialRows.front();
        if (got.accepted != want.accepted ||
            got.delivered != want.delivered ||
            got.refused != want.refused ||
            got.pendingAtEnd != want.pendingAtEnd ||
            got.duplicates != want.duplicates ||
            got.cyclesRun != want.cyclesRun ||
            got.flitEvents != want.flitEvents)
            failures.push_back("replayed trial 0 differs from runCampaign");
        for (const std::string& v : probe.violations)
            failures.push_back("invariant (trial 0 replay): " + v);
        if (opt.trace) {
            span_log.nextRun();
            TraceData t;
            probe_timed.push_back(driveNetwork(cfg, Phases::CampaignTrial,
                                               cap, spans, &t));
            probe_traces.push_back(std::move(t));
            if (probe_timed.back().digest != probe.digest)
                failures.push_back("traced trial 0 replay differs");
        }
    } else {
        SimConfig ref = w.cfg;
        ref.shards = 1;
        Digest d;
        d.add(runExperiment(ref));
        if (d.hex() != digest)
            failures.push_back("runExperiment at shards=1 gives " +
                               d.hex() + ", harness gives " + digest);
    }
    // Shard byte-identity for an unsharded workload: its unit (for a
    // campaign, the trial 0 replay) driven once more at kTwinShards must
    // reproduce the digest. The twin's trace gives the sim.parallel.*
    // metrics; a sharded workload has its own traced units for them.
    std::vector<TraceData> twin_traces;
    if (resolveShards(w.cfg.shards) == 1) {
        SimConfig cfg = campaign ? campaignConfig(w, false).base : w.cfg;
        cfg.shards = kTwinShards;
        TraceData t;
        const Unit twin = driveNetwork(
            cfg, campaign ? Phases::CampaignTrial : Phases::Experiment,
            campaign ? CampaignConfig{}.drainCap : cfg.drainCycles, nullptr,
            &t);
        const std::string& want = campaign ? probe.digest : digest;
        if (twin.digest != want)
            failures.push_back("shards=" + std::to_string(kTwinShards) +
                               " twin gives " + twin.digest + ", shards=1 " +
                               want);
        for (const std::string& v : twin.violations)
            failures.push_back("invariant (sharded twin): " + v);
        twin_traces.push_back(std::move(t));
    }
    for (const std::vector<TraceData>* set :
         {&traces, &probe_traces, &twin_traces})
        for (const TraceData& t : *set)
            if (!t.snapshotRoundTrip)
                failures.push_back("snapshot restore is not byte-identical");

    // End-to-end metrics, from the untraced units. Every unit does the
    // same simulated work, so each throughput is reported as the lower
    // quartile over units: the rate three units in four reach. On a
    // shared host the same unit's rate varies up to 2.5x as neighbours
    // come and go, mostly as fast spells above a common level; the
    // lower quartile follows that level and moves less from run to run
    // than the median (README, Noise).
    std::vector<double> fe, nc;
    for (const Unit& u : units) {
        fe.push_back(ratio(static_cast<double>(u.flitEvents), u.hostS));
        nc.push_back(ratio(u.nodeCycles, u.hostS));
    }
    const RunResult& sim = campaign ? probe.result : units.front().result;
    const double delivery =
        campaign ? units.front().summary.deliveryRate
                 : ratio(static_cast<double>(sim.deliveredMeasured),
                         static_cast<double>(sim.measuredMessages));
    const std::vector<Metric> e2e = {
        {"flit_events_per_s", lowerQuartile(fe), "events/s"},
        {"node_cycles_per_s", lowerQuartile(nc), "node-cycles/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"sim_latency_mean_cycles", sim.avgLatency, "cycles"},
        {"sim_latency_p99_cycles", sim.p99Latency, "cycles"},
        {"sim_accepted_throughput", sim.acceptedThroughput,
         "flits/node/cycle"},
        {"sim_delivery_rate", delivery, "ratio"},
    };
    printMetrics("end-to-end (untraced units):", e2e);
    std::printf("  %-34s %18.6g ratio (%llu failed / %llu attempted)\n",
                "run_failure_ratio",
                ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    std::printf("units: %zu untraced, %zu traced; host s per unit:",
                units.size(), traced.size());
    for (const Unit& u : units)
        std::printf(" %.3f", u.hostS);
    std::printf("\n");
    std::printf("digest: %s (%s)\n", digest.c_str(),
                opt.expectDigest.empty()
                    ? "digest unchecked"
                    : (digest == opt.expectDigest ? "matches expected"
                                                  : "MISMATCH"));

    // Per-layer metrics: for a campaign from its trial 0 replay, else
    // from the units themselves (the traced ones in a traced run).
    std::vector<double> tfe;
    for (const Unit& u : traced)
        tfe.push_back(ratio(static_cast<double>(u.flitEvents), u.hostS));
    const std::vector<Unit> probes = {probe};
    const std::vector<Metric> layers = layerMetrics(
        w,
        campaign ? (opt.trace ? probe_timed : probes)
                 : (opt.trace ? traced : units),
        campaign ? probe_traces : traces,
        twin_traces.empty() ? traces : twin_traces,
        campaign ? ratio(units.front().summary.accountedTrials,
                         units.front().summary.trials)
                 : 0.0,
        kb_per_node, ratio(lowerQuartile(fe), lowerQuartile(tfe)));
    if (!opt.trace) {
        // The sim.* and trace.* numbers come from traced units only.
        std::printf("per-layer counts (timings need --trace 1):\n");
        for (const Metric& m : layers)
            if (m.unit != "s" && m.unit != "ns" &&
                m.name.rfind("sim.", 0) != 0 &&
                m.name.rfind("trace.", 0) != 0)
                std::printf("  %-34s %18.6g %s\n", m.name.c_str(), m.value,
                            m.unit.c_str());
    } else {
        printMetrics("per-layer (traced units):", layers);
        std::vector<TraceData> all = traces;
        all.insert(all.end(), probe_traces.begin(), probe_traces.end());
        std::printf("layer self time (s, all traced units):");
        for (const auto& [layer, s] : layerSelfSeconds(span_log, all))
            std::printf(" %s=%.6f", layer.c_str(), s);
        std::printf("\nspan self time (s):");
        for (const auto& [name, s] : span_log.selfSeconds())
            std::printf(" %s=%.6f", name.c_str(), s);
        std::printf("\n");
        if (!opt.spansPath.empty()) {
            if (span_log.write(opt.spansPath, env))
                std::printf("spans: %s\n", opt.spansPath.c_str());
            else
                failures.push_back("cannot write " + opt.spansPath);
        }
    }

    for (const std::string& f : failures)
        std::printf("FAIL: %s\n", f.c_str());
    const bool correct = failures.empty() && failed == 0;
    std::printf("%s\n", resultJson(correct, attempted, failed,
                                   opt.trace ? layers : e2e)
                            .c_str());
    return correct ? 0 : 1;
}
