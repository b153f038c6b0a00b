/**
 * @file
 * Checkpoint/restore tests: the byte-identity guarantee (save →
 * restore → continue matches an uninterrupted run bit for bit, under
 * both schedulers), the on-disk container's corruption handling, the
 * campaign journal's crash-resume semantics, and the watchdog's
 * quarantine fate (docs/ROBUSTNESS.md).
 */

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/experiment.hh"
#include "src/core/network.hh"
#include "src/fault/campaign.hh"
#include "src/fault/fault_schedule.hh"
#include "src/nic/injector.hh"
#include "src/router/router.hh"
#include "src/sim/checksum.hh"
#include "src/sim/config.hh"
#include "src/sim/fixed_vec.hh"
#include "src/sim/snapshot.hh"
#include "src/topology/topology.hh"
#include "src/traffic/generator.hh"

namespace crnet {
namespace {

/**
 * A deliberately busy little network: dynamic faults, transient
 * corruption, FCR recovery, time series, heatmap and tracing all on,
 * so the snapshot has to carry every subsystem.
 */
SimConfig
snapConfig(SchedulerKind sched)
{
    SimConfig cfg;
    cfg.radixK = 4;
    cfg.dimensionsN = 2;
    cfg.numVcs = 2;
    cfg.routing = RoutingKind::MinimalAdaptive;
    cfg.protocol = ProtocolKind::Fcr;
    cfg.injectionRate = 0.2;
    cfg.messageLength = 8;
    cfg.timeout = 16;
    cfg.warmupCycles = 100;
    cfg.measureCycles = 400;
    cfg.dynamicLinkKills = 1;
    cfg.misrouteAfterRetries = 1;
    cfg.transientFaultRate = 0.0005;
    cfg.sampleInterval = 100;
    cfg.heatmapEnabled = true;
    cfg.sched = sched;
    cfg.seed = 99;
    return cfg;
}

/**
 * Drive `pre` cycles (measuring from cycle 100), optionally hop the
 * state through a snapshot into a fresh network, then drive the same
 * `post` schedule; return the final full-state payload.
 */
std::vector<std::uint8_t>
endState(const SimConfig& cfg, bool via_restore)
{
    Network a(cfg);
    a.setMeasuring(false);
    a.run(100);
    a.setMeasuring(true);
    a.run(200);  // Snapshot lands mid-measurement, faults in flight.

    Network* cont = &a;
    Network b(cfg);
    if (via_restore) {
        const Snapshot mid = captureSnapshot(a);
        EXPECT_EQ(restoreSnapshot(b, mid), "");
        EXPECT_EQ(b.now(), a.now());
        cont = &b;
    }
    cont->run(200);
    cont->setMeasuring(false);
    cont->setTrafficEnabled(false);
    cont->run(300);
    return captureSnapshot(*cont).payload;
}

TEST(SnapshotIdentity, RestoredRunMatchesUninterruptedActive)
{
    const SimConfig cfg = snapConfig(SchedulerKind::Active);
    const auto straight = endState(cfg, false);
    const auto hopped = endState(cfg, true);
    ASSERT_EQ(straight.size(), hopped.size());
    EXPECT_TRUE(straight == hopped);
}

TEST(SnapshotIdentity, RestoredRunMatchesUninterruptedSweep)
{
    const SimConfig cfg = snapConfig(SchedulerKind::Sweep);
    const auto straight = endState(cfg, false);
    const auto hopped = endState(cfg, true);
    ASSERT_EQ(straight.size(), hopped.size());
    EXPECT_TRUE(straight == hopped);
}

TEST(SnapshotIdentity, SnapshotRestoresAcrossSchedulers)
{
    // The config fingerprint excludes `sched`: a snapshot captured
    // under one scheduler restores under the other and the
    // continuation is observably identical — the serialized wake
    // flags carry over as a safe superset. (The raw payload bytes of
    // the continuations may differ — flags and deadline slots
    // converge lazily — so this compares observable output, not state
    // bytes.)
    auto captureUnder = [](SchedulerKind k) {
        Network warm(snapConfig(k));
        warm.setMeasuring(false);
        warm.run(300);
        return captureSnapshot(warm);
    };
    auto continueUnder = [](SchedulerKind k, const Snapshot& snap) {
        Network net(snapConfig(k));
        EXPECT_EQ(restoreSnapshot(net, snap), "");
        net.run(500);
        return net.timeseriesSamples();
    };

    const Snapshot fromSweep = captureUnder(SchedulerKind::Sweep);
    const auto sweepSweep =
        continueUnder(SchedulerKind::Sweep, fromSweep);
    ASSERT_FALSE(sweepSweep.empty());
    EXPECT_EQ(continueUnder(SchedulerKind::Active, fromSweep),
              sweepSweep);

    const Snapshot fromActive = captureUnder(SchedulerKind::Active);
    const auto activeActive =
        continueUnder(SchedulerKind::Active, fromActive);
    EXPECT_EQ(continueUnder(SchedulerKind::Sweep, fromActive),
              activeActive);
}

/** The stats lines tests/fixtures/event_sched_v3.stats records. */
std::string
fixtureStatsText(const Network& net)
{
    NetworkStats s = net.stats();
    StateWriter w;
    serializeStats(w, s);
    const std::vector<std::uint8_t>& b = w.bytes();
    std::ostringstream os;
    os << "cycle " << net.now() << "\n"
       << "messages_generated " << s.messagesGenerated.value() << "\n"
       << "messages_delivered " << s.messagesDelivered.value() << "\n"
       << "measured_delivered " << s.measuredDelivered.value() << "\n"
       << "messages_failed " << s.messagesFailed.value() << "\n"
       << "source_kills " << s.sourceKills.value() << "\n"
       << "fault_events_applied " << s.faultEventsApplied.value()
       << "\n"
       << "flits_consumed " << s.flitsConsumed.value() << "\n"
       << "latency_count " << s.totalLatency.count() << "\n"
       << "latency_sum " << std::hexfloat << s.totalLatency.sum()
       << std::defaultfloat << "\n"
       << "stats_bytes " << b.size() << " crc32 " << std::hex
       << crc32(b.data(), b.size()) << std::dec << "\n";
    return os.str();
}

TEST(SnapshotIdentity, SnapshotFromRemovedEventSchedulerRestores)
{
    // tests/fixtures/event_sched_v3.snp was captured by the previous
    // release under the since-removed skip-ahead scheduler
    // (sched=event): snapConfig at injection rate 0.02, measuring from
    // cycle 100, taken at cycle 300 after it had skipped 33 quiet
    // cycles. event_sched_v3.stats holds that release's stats after
    // continuing 200 measured cycles, then 300 with traffic and
    // measurement off. `sched` is outside the fingerprint, so the
    // file must restore here and the continuation must match exactly.
    if (!CRNET_AUDIT_ENABLED)
        GTEST_SKIP() << "fixture was captured with the audit compiled "
                        "in, which is part of the config fingerprint";
    const std::string dir = CRNET_TEST_FIXTURE_DIR;
    Snapshot snap;
    ASSERT_EQ(readSnapshotFile(dir + "/event_sched_v3.snp", snap), "");
    EXPECT_EQ(snap.at, 300u);

    SimConfig cfg = snapConfig(SchedulerKind::Active);
    cfg.injectionRate = 0.02;
    Network net(cfg);
    ASSERT_EQ(restoreSnapshot(net, snap), "");
    net.run(200);
    net.setMeasuring(false);
    net.setTrafficEnabled(false);
    net.run(300);

    std::ifstream in(dir + "/event_sched_v3.stats");
    std::ostringstream want;
    want << in.rdbuf();
    ASSERT_FALSE(want.str().empty());
    EXPECT_EQ(fixtureStatsText(net), want.str());
}

// --- Committed golden bytes ---------------------------------------------

/**
 * tests/fixtures/snapshot_v3_full.snp: snapConfig with a tracer and a
 * delivery ledger attached, so every optional block is present,
 * captured at cycle 300 after 100 unmeasured and 200 measured cycles.
 * It pins the write side of the payload layout byte for byte.
 */
Snapshot
goldenFullSnapshot()
{
    Snapshot snap;
    EXPECT_EQ(readSnapshotFile(std::string(CRNET_TEST_FIXTURE_DIR) +
                                   "/snapshot_v3_full.snp",
                               snap),
              "");
    return snap;
}

SimConfig
goldenFullConfig(const std::string& trace_name)
{
    SimConfig cfg = snapConfig(SchedulerKind::Active);
    cfg.traceFile = testing::TempDir() + trace_name;
    return cfg;
}

TEST(SnapshotGolden, FreshCaptureMatchesCommittedBytes)
{
    if (!CRNET_AUDIT_ENABLED)
        GTEST_SKIP() << "fixture was captured with the audit compiled "
                        "in, which is part of the config fingerprint";
    const Snapshot want = goldenFullSnapshot();
    EXPECT_EQ(want.at, 300u);

    DeliveryLedger ledger;
    Network net(goldenFullConfig("crnet_golden_fresh_trace"));
    net.attachLedger(&ledger);
    net.setMeasuring(false);
    net.run(100);
    net.setMeasuring(true);
    net.run(200);
    const Snapshot have = captureSnapshot(net);
    EXPECT_EQ(have.at, want.at);
    EXPECT_EQ(have.fingerprint, want.fingerprint);
    ASSERT_EQ(have.payload.size(), want.payload.size());
    EXPECT_TRUE(have.payload == want.payload);
}

TEST(SnapshotGolden, RestoreThenRecaptureMatchesCommittedBytes)
{
    if (!CRNET_AUDIT_ENABLED)
        GTEST_SKIP() << "fixture was captured with the audit compiled "
                        "in, which is part of the config fingerprint";
    const Snapshot want = goldenFullSnapshot();

    DeliveryLedger ledger;
    Network net(goldenFullConfig("crnet_golden_restore_trace"));
    net.attachLedger(&ledger);
    ASSERT_EQ(restoreSnapshot(net, want), "");
    const Snapshot have = captureSnapshot(net);
    EXPECT_EQ(have.at, want.at);
    ASSERT_EQ(have.payload.size(), want.payload.size());
    EXPECT_TRUE(have.payload == want.payload);
}

TEST(SnapshotIdentity, TracedRunSurvivesRestore)
{
    // With a tracer attached the event list itself is part of the
    // state: the restored network's trace must contain the pre-hop
    // events, not start empty.
    SimConfig cfg = snapConfig(SchedulerKind::Active);
    cfg.traceFile = testing::TempDir() + "crnet_snap_trace_a";
    const auto straight = endState(cfg, false);
    cfg.traceFile = testing::TempDir() + "crnet_snap_trace_b";
    const auto hopped = endState(cfg, true);
    EXPECT_TRUE(straight == hopped);
}

TEST(SnapshotIdentity, WarmForksAreDeterministicAndDiverge)
{
    const SimConfig cfg = snapConfig(SchedulerKind::Active);
    Network warm(cfg);
    warm.setMeasuring(false);
    warm.run(150);
    const Snapshot snap = captureSnapshot(warm);

    auto fork = [&](std::uint64_t seed) {
        Network net(cfg);
        EXPECT_EQ(restoreSnapshot(net, snap), "");
        net.reseedStreams(seed);
        net.setMeasuring(true);
        net.run(400);
        return captureSnapshot(net).payload;
    };
    const auto f1 = fork(1234);
    const auto f2 = fork(1234);
    const auto f3 = fork(4321);
    EXPECT_TRUE(f1 == f2);  // Same reseed: bit-identical.
    EXPECT_FALSE(f1 == f3);  // Different reseed: a different world.
}

TEST(Snapshot, RefusesMismatchedConfig)
{
    const SimConfig cfg = snapConfig(SchedulerKind::Active);
    Network a(cfg);
    a.run(50);
    const Snapshot snap = captureSnapshot(a);

    SimConfig other = cfg;
    other.injectionRate = 0.25;
    Network b(other);
    const std::string err = restoreSnapshot(b, snap);
    EXPECT_NE(err.find("fingerprint"), std::string::npos) << err;
    EXPECT_EQ(b.now(), 0u);  // Refusal leaves the target untouched.
}

// --- On-disk container --------------------------------------------------

class SnapshotFile : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        cfg_ = snapConfig(SchedulerKind::Active);
        Network net(cfg_);
        net.run(120);
        snap_ = captureSnapshot(net);
        // Unique per test case: ctest runs the cases as parallel
        // processes, and a shared path lets one case's corrupted
        // rewrite race another's read.
        path_ = testing::TempDir() + "crnet_snapshot_" +
                testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".bin";
        ASSERT_EQ(writeSnapshotFile(path_, snap_), "");
        ASSERT_EQ(readFileBytes(path_, file_), "");
    }

    /** Rewrite the file with `bytes`, fixing up the CRC trailer. */
    void
    rewriteWithValidCrc(std::vector<std::uint8_t> bytes)
    {
        const std::size_t body = bytes.size() - 4;
        const std::uint32_t crc = crc32(bytes.data(), body);
        for (int i = 0; i < 4; ++i)
            bytes[body + i] =
                static_cast<std::uint8_t>(crc >> (8 * i));
        ASSERT_EQ(atomicWriteFile(path_, bytes), "");
    }

    SimConfig cfg_;
    Snapshot snap_;
    std::string path_;
    std::vector<std::uint8_t> file_;
};

TEST_F(SnapshotFile, RoundTripsExactly)
{
    Snapshot back;
    ASSERT_EQ(readSnapshotFile(path_, back), "");
    EXPECT_EQ(back.at, snap_.at);
    EXPECT_EQ(back.fingerprint, snap_.fingerprint);
    EXPECT_TRUE(back.payload == snap_.payload);

    // And the bytes are live: restore + run works.
    Network net(cfg_);
    ASSERT_EQ(restoreSnapshot(net, back), "");
    net.run(50);
    EXPECT_EQ(net.now(), 170u);
}

TEST_F(SnapshotFile, DetectsFlippedPayloadByte)
{
    std::vector<std::uint8_t> bad = file_;
    bad[bad.size() / 2] ^= 0x40;
    ASSERT_EQ(atomicWriteFile(path_, bad), "");
    Snapshot out;
    const std::string err = readSnapshotFile(path_, out);
    EXPECT_NE(err.find("CRC"), std::string::npos) << err;
}

TEST_F(SnapshotFile, DetectsTruncation)
{
    std::vector<std::uint8_t> bad(file_.begin(),
                                  file_.begin() + 20);
    ASSERT_EQ(atomicWriteFile(path_, bad), "");
    Snapshot out;
    const std::string err = readSnapshotFile(path_, out);
    EXPECT_NE(err.find("truncated"), std::string::npos) << err;

    // A torn tail (CRC cut off mid-write) must also be caught.
    std::vector<std::uint8_t> torn(file_.begin(), file_.end() - 2);
    ASSERT_EQ(atomicWriteFile(path_, torn), "");
    EXPECT_NE(readSnapshotFile(path_, out), "");
}

TEST_F(SnapshotFile, DetectsBadMagic)
{
    std::vector<std::uint8_t> bad = file_;
    bad[0] = 'X';
    rewriteWithValidCrc(bad);
    Snapshot out;
    const std::string err = readSnapshotFile(path_, out);
    EXPECT_NE(err.find("magic"), std::string::npos) << err;
}

TEST_F(SnapshotFile, DetectsVersionSkew)
{
    std::vector<std::uint8_t> bad = file_;
    bad[8] = 0xEE;  // Version field follows the 8-byte magic.
    rewriteWithValidCrc(bad);
    Snapshot out;
    const std::string err = readSnapshotFile(path_, out);
    EXPECT_NE(err.find("version"), std::string::npos) << err;
}

TEST_F(SnapshotFile, MissingFileIsAnError)
{
    Snapshot out;
    EXPECT_NE(readSnapshotFile(path_ + ".nope", out), "");
}

// --- Payload checks ----------------------------------------------------
//
// A payload that passed its CRC can still carry values this build
// cannot honour (version skew, a serialization bug). Restore must
// panic on them before they index or size anything.

TEST(SnapshotPayloadDeath, OutOfRangeSourceInDenseReceiverTable)
{
    const SimConfig cfg = snapConfig(SchedulerKind::Active);
    NetworkStats stats;
    Receiver::StatePool pool(cfg, 1);  // 16 nodes: dense last-seq table.
    Receiver rcv(3, cfg, &stats, pool, 0);
    StateWriter fresh;
    rcv.serialize(fresh);
    // A fresh receiver's payload ends with the last-seq count, the
    // seen-set count, the delivered count and the dynamic-fault bit
    // (25 bytes). Replace them with one entry from source 16.
    std::vector<std::uint8_t> bytes(fresh.bytes().begin(),
                                    fresh.bytes().end() - 25);
    StateWriter tail;
    tail.u64(1);
    tail.u32(16);
    tail.i64(0);
    tail.u64(0);
    tail.u64(0);
    tail.b(false);
    bytes.insert(bytes.end(), tail.bytes().begin(), tail.bytes().end());
    StateReader r(bytes);
    EXPECT_DEATH(rcv.serialize(r), "source node 16 out of range");
}

TEST(SnapshotPayloadDeath, OutOfRangeNodeInDensePairTable)
{
    const SimConfig cfg = snapConfig(SchedulerKind::Active);
    auto topo = makeTopology(cfg);
    TrafficGenerator gen(cfg, *topo, Rng(1));  // Dense pair matrix.
    StateWriter w;
    for (std::uint64_t word = 1; word <= 4; ++word)
        w.u64(word);  // RNG stream.
    w.u64(0);         // Next message id.
    w.u64(1);         // One (src, dst) entry ...
    w.u64((std::uint64_t{2} << 32) | 16);  // ... to destination 16.
    w.u32(5);
    StateReader r(w.bytes());
    EXPECT_DEATH(gen.serialize(r), "destination node 16 out of range");
}

TEST(SnapshotPayloadDeath, BadEnumByte)
{
    FaultSchedule sched;
    StateWriter w;
    w.u64(1);    // One event:
    w.u64(10);   // at,
    w.u8(200);   // kind (FaultEventKind has six values),
    w.u32(0);    // node,
    w.u16(0);    // port,
    w.f64(0.0);  // rate.
    w.u64(0);    // Cursor.
    w.u32(0);    // Shortfall.
    StateReader r(w.bytes());
    EXPECT_DEATH(sched.serialize(r), "enum byte 200 beyond");
}

TEST(SnapshotPayloadDeath, CountBeyondPayloadPanicsBeforeAllocating)
{
    // Each element takes at least one byte, so a count above the
    // bytes left is refused before any container is sized by it.
    StateWriter w;
    w.u64(std::uint64_t{1} << 60);
    w.u64(0);
    {
        FaultSchedule sched;
        StateReader r(w.bytes());
        EXPECT_DEATH(sched.serialize(r), "snapshot count .* exceeds");
    }
    {
        DeliveryLedger ledger;
        StateReader r(w.bytes());
        EXPECT_DEATH(ledger.serialize(r), "snapshot count .* exceeds");
    }
}

TEST(SnapshotPayloadDeath, CountBeyondFixedListCapacity)
{
    // A pool-slice list (such as the injector's retry list) cannot
    // grow, so a payload count above its capacity is refused.
    StateWriter w;
    w.u64(3);
    for (std::uint32_t i = 0; i < 3; ++i)
        w.u32(i);
    std::uint32_t slots[2] = {};
    FixedVec<std::uint32_t> list(slots, 2);
    StateReader r(w.bytes());
    EXPECT_DEATH(lengthPrefixed(r, list,
                                [&r](std::uint32_t& v) { r.u32(v); }),
                 "3 entries exceeds its capacity 2");
}

TEST(SnapshotPayloadDeath, ConfigFixedShapeMismatchPanics)
{
    // Sizes and presence bits the config fixes are written on save
    // and must match on restore.
    Histogram four(8.0, 4);
    StateWriter w;
    four.serialize(w);
    Histogram eight(8.0, 8);
    StateReader r(w.bytes());
    EXPECT_DEATH(eight.serialize(r), "Histogram bin array size mismatch");

    const Snapshot timed =
        captureSnapshot(Network(snapConfig(SchedulerKind::Active)));
    SimConfig untimedCfg = snapConfig(SchedulerKind::Active);
    untimedCfg.sampleInterval = 0;
    Network untimed(untimedCfg);
    StateReader payload(timed.payload);
    EXPECT_DEATH(untimed.serialize(payload),
                 "timeseries presence .* mismatch");
}

TEST(SnapshotPayloadDeath, ScheduleCursorBeyondEventsPanics)
{
    FaultSchedule sched;
    StateWriter w;
    w.u64(0);  // No events,
    w.u64(3);  // but a cursor past three of them.
    w.u32(0);
    StateReader r(w.bytes());
    EXPECT_DEATH(sched.serialize(r), "cursor 3 beyond 0 events");
}

TEST(SnapshotPayloadDeath, TrailingBytesPanic)
{
    Snapshot snap =
        captureSnapshot(Network(snapConfig(SchedulerKind::Active)));
    snap.payload.push_back(0);
    Network net(snapConfig(SchedulerKind::Active));
    EXPECT_DEATH(restoreSnapshot(net, snap), "1 trailing bytes");
}

/** Overwrite the little-endian u16 at `at` in a payload. */
void
pokeU16(std::vector<std::uint8_t>& bytes, std::size_t at, std::uint16_t v)
{
    bytes.at(at) = static_cast<std::uint8_t>(v);
    bytes.at(at + 1) = static_cast<std::uint8_t>(v >> 8);
}

TEST(SnapshotPayloadDeath, OutOfRangePortOrVcInRouterState)
{
    // The switch allocator indexes its arrays by these values directly
    // (round-robin pointers wrap by compare-and-subtract, not `%`), so
    // a restore refuses any that is out of range.
    const SimConfig cfg = snapConfig(SchedulerKind::Active);
    auto topo = makeTopology(cfg);
    FaultModel faults(*topo, 0.0, Rng(1));
    auto algo = makeRouting(cfg, *topo, faults);
    RouterStats stats;
    Router::StatePool pool(cfg, 1);
    Router router(0, cfg, *algo, &stats, Rng(2), pool, 0);
    StateWriter fresh;
    router.serialize(fresh);
    // 5 input and 5 output ports of 2 VCs. The payload ends with the
    // round-robin pointers (2 x 5 u16), the heat flag, the RNG words
    // and the cycle (41 bytes); before them the pending-bkill count
    // and the 10 output-VC records of 18 bytes each.
    const std::size_t tail = 41;
    const std::size_t rr_out = fresh.bytes().size() - tail - 10;
    const std::size_t rr_in = rr_out - 10;
    const std::size_t outputs = rr_in - 8 - 10 * 18;
    {
        std::vector<std::uint8_t> bytes = fresh.bytes();
        pokeU16(bytes, rr_in + 2, 2);
        StateReader r(bytes);
        EXPECT_DEATH(router.serialize(r),
                     "input round-robin VC 2 out of range");
    }
    {
        std::vector<std::uint8_t> bytes = fresh.bytes();
        pokeU16(bytes, rr_out, 5);
        StateReader r(bytes);
        EXPECT_DEATH(router.serialize(r),
                     "output round-robin input port 5 out of range");
    }
    {
        // An allocated output VC whose holder is not an input port.
        std::vector<std::uint8_t> bytes = fresh.bytes();
        bytes.at(outputs) = 1;
        StateReader r(bytes);
        EXPECT_DEATH(router.serialize(r),
                     "output-VC holder port 65535 out of range");
    }
}

TEST(SnapshotPayloadDeath, BadBusyDestinationsOrRoundRobinInInjector)
{
    const SimConfig cfg = snapConfig(SchedulerKind::Active);
    auto topo = makeTopology(cfg);
    FaultModel faults(*topo, 0.0, Rng(1));
    auto algo = makeRouting(cfg, *topo, faults);
    NetworkStats stats;
    Injector::StatePool pool(cfg, 1);
    Injector inj(0, cfg, *topo, *algo, &stats, Rng(2), pool, 0);
    StateWriter fresh;
    inj.serialize(fresh);
    // A fresh injector's payload ends with the busy-destination count
    // (empty), one round-robin VC and the RNG words (42 bytes).
    auto withTail = [&](const std::vector<NodeId>& busy, VcId rr) {
        std::vector<std::uint8_t> bytes(fresh.bytes().begin(),
                                        fresh.bytes().end() - 42);
        StateWriter tail;
        tail.u64(busy.size());
        for (NodeId d : busy)
            tail.u32(d);
        tail.u16(rr);
        for (std::uint64_t word = 1; word <= 4; ++word)
            tail.u64(word);
        bytes.insert(bytes.end(), tail.bytes().begin(),
                     tail.bytes().end());
        return bytes;
    };
    {
        const auto bytes = withTail({9, 3}, 0);
        StateReader r(bytes);
        EXPECT_DEATH(inj.serialize(r), "not strictly ascending");
    }
    {
        const auto bytes = withTail({3, 3}, 0);
        StateReader r(bytes);
        EXPECT_DEATH(inj.serialize(r), "not strictly ascending");
    }
    {
        const auto bytes = withTail({16}, 0);
        StateReader r(bytes);
        EXPECT_DEATH(inj.serialize(r), "busy destination 16 out of range");
    }
    {
        const auto bytes = withTail({1, 2, 3}, 0);
        StateReader r(bytes);
        EXPECT_DEATH(inj.serialize(r), "3 busy destinations for 2");
    }
    {
        const auto bytes = withTail({}, 2);
        StateReader r(bytes);
        EXPECT_DEATH(inj.serialize(r),
                     "injector round-robin VC 2 out of range");
    }
    {
        // The well-formed tail restores.
        const auto bytes = withTail({3, 9}, 1);
        StateReader r(bytes);
        inj.serialize(r);
        EXPECT_EQ(r.remaining(), 0u);
    }
}

// --- Campaign journal ---------------------------------------------------

CampaignConfig
campConfig(const std::string& journal)
{
    CampaignConfig cc;
    cc.base = snapConfig(SchedulerKind::Active);
    cc.base.warmupCycles = 100;
    cc.base.measureCycles = 300;
    cc.base.jobs = 1;
    cc.trials = 4;
    cc.seedBase = 7;
    cc.journalPath = journal;
    return cc;
}

void
expectTrialsEqual(const std::vector<TrialOutcome>& a,
                  const std::vector<TrialOutcome>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].trial, b[i].trial);
        EXPECT_EQ(a[i].seed, b[i].seed);
        EXPECT_EQ(a[i].accepted, b[i].accepted);
        EXPECT_EQ(a[i].delivered, b[i].delivered);
        EXPECT_EQ(a[i].refused, b[i].refused);
        EXPECT_EQ(a[i].pendingAtEnd, b[i].pendingAtEnd);
        EXPECT_EQ(a[i].duplicates, b[i].duplicates);
        EXPECT_EQ(a[i].faultEvents, b[i].faultEvents);
        EXPECT_EQ(a[i].flitsLost, b[i].flitsLost);
        EXPECT_EQ(a[i].receiverTimeouts, b[i].receiverTimeouts);
        EXPECT_EQ(a[i].firstFaultAt, b[i].firstFaultAt);
        EXPECT_EQ(a[i].preFaultLatency, b[i].preFaultLatency);
        EXPECT_EQ(a[i].postFaultLatency, b[i].postFaultLatency);
        EXPECT_EQ(a[i].recoveryCycles, b[i].recoveryCycles);
        EXPECT_EQ(a[i].deadlocked, b[i].deadlocked);
        EXPECT_EQ(a[i].fullyAccounted, b[i].fullyAccounted);
        EXPECT_EQ(a[i].cyclesRun, b[i].cyclesRun);
        EXPECT_EQ(a[i].flitEvents, b[i].flitEvents);
        EXPECT_EQ(a[i].quarantined, b[i].quarantined);
        EXPECT_EQ(a[i].budgetRetries, b[i].budgetRetries);
    }
}

/** Everything except wallSeconds and resumedTrials must match. */
void
expectSummariesEqual(const CampaignSummary& a, const CampaignSummary& b)
{
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.accountedTrials, b.accountedTrials);
    EXPECT_EQ(a.deadlockedTrials, b.deadlockedTrials);
    EXPECT_EQ(a.quarantinedTrials, b.quarantinedTrials);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.refused, b.refused);
    EXPECT_EQ(a.pending, b.pending);
    EXPECT_EQ(a.duplicates, b.duplicates);
    EXPECT_EQ(a.faultEvents, b.faultEvents);
    EXPECT_EQ(a.deliveryRate, b.deliveryRate);
    EXPECT_EQ(a.meanPreFaultLatency, b.meanPreFaultLatency);
    EXPECT_EQ(a.meanPostFaultLatency, b.meanPostFaultLatency);
    EXPECT_EQ(a.meanRecoveryCycles, b.meanRecoveryCycles);
    EXPECT_EQ(a.maxRecoveryCycles, b.maxRecoveryCycles);
    EXPECT_EQ(a.flitEvents, b.flitEvents);
}

TEST(CampaignJournal, ResumeFromTornJournalReproducesSummary)
{
    const std::string path =
        testing::TempDir() + "crnet_journal_test.jnl";
    std::remove(path.c_str());

    // Uninterrupted reference, no journal.
    std::vector<TrialOutcome> refTrials;
    const CampaignSummary ref =
        runCampaign(campConfig(""), &refTrials);

    // Full journaled run, cold start.
    std::vector<TrialOutcome> coldTrials;
    const CampaignSummary cold =
        runCampaign(campConfig(path), &coldTrials);
    EXPECT_EQ(cold.resumedTrials, 0u);
    expectSummariesEqual(ref, cold);
    expectTrialsEqual(refTrials, coldTrials);

    // Simulate a crash mid-append: chop the journal mid-record. The
    // replay must keep the intact prefix and re-run the rest.
    std::vector<std::uint8_t> bytes;
    ASSERT_EQ(readFileBytes(path, bytes), "");
    std::vector<std::uint8_t> torn(
        bytes.begin(),
        bytes.begin() +
            static_cast<std::ptrdiff_t>(bytes.size() * 2 / 3));
    ASSERT_EQ(atomicWriteFile(path, torn), "");

    std::vector<TrialOutcome> resTrials;
    const CampaignSummary res =
        runCampaign(campConfig(path), &resTrials);
    EXPECT_GT(res.resumedTrials, 0u);
    EXPECT_LT(res.resumedTrials, res.trials);
    expectSummariesEqual(ref, res);
    expectTrialsEqual(refTrials, resTrials);

    // A clean re-run replays everything and runs nothing.
    std::vector<TrialOutcome> againTrials;
    const CampaignSummary again =
        runCampaign(campConfig(path), &againTrials);
    EXPECT_EQ(again.resumedTrials, again.trials);
    expectSummariesEqual(ref, again);
    expectTrialsEqual(refTrials, againTrials);
    std::remove(path.c_str());
}

TEST(CampaignJournal, CorruptedRecordFallsBackToGoodPrefix)
{
    const std::string path =
        testing::TempDir() + "crnet_journal_corrupt.jnl";
    std::remove(path.c_str());

    std::vector<TrialOutcome> refTrials;
    const CampaignSummary ref =
        runCampaign(campConfig(""), &refTrials);
    runCampaign(campConfig(path), nullptr);

    // Flip a byte inside the *last* record's payload: the CRC guard
    // must drop it (and only it) on replay.
    std::vector<std::uint8_t> bytes;
    ASSERT_EQ(readFileBytes(path, bytes), "");
    bytes[bytes.size() - 10] ^= 0x01;
    ASSERT_EQ(atomicWriteFile(path, bytes), "");

    std::vector<TrialOutcome> resTrials;
    const CampaignSummary res =
        runCampaign(campConfig(path), &resTrials);
    EXPECT_EQ(res.resumedTrials, res.trials - 1);
    expectSummariesEqual(ref, res);
    expectTrialsEqual(refTrials, resTrials);
    std::remove(path.c_str());
}

TEST(CampaignJournal, GarbageFileStartsFresh)
{
    const std::string path =
        testing::TempDir() + "crnet_journal_garbage.jnl";
    const std::vector<std::uint8_t> junk = {'n', 'o', 't', ' ',
                                            'a', ' ', 'j', 'n',
                                            'l', '!'};
    ASSERT_EQ(atomicWriteFile(path, junk), "");

    std::vector<TrialOutcome> refTrials;
    const CampaignSummary ref =
        runCampaign(campConfig(""), &refTrials);
    std::vector<TrialOutcome> trials;
    const CampaignSummary s = runCampaign(campConfig(path), &trials);
    EXPECT_EQ(s.resumedTrials, 0u);
    expectSummariesEqual(ref, s);
    expectTrialsEqual(refTrials, trials);
    std::remove(path.c_str());
}

/**
 * tests/fixtures/campaign_v1.jnl: the jobs=1 journal campConfig
 * writes (four trials). It pins the journal's record layout.
 */
std::string
goldenJournalPath()
{
    return std::string(CRNET_TEST_FIXTURE_DIR) + "/campaign_v1.jnl";
}

TEST(CampaignJournalGolden, FreshJournalMatchesCommittedBytes)
{
    if (!CRNET_AUDIT_ENABLED)
        GTEST_SKIP() << "fixture was written with the audit compiled "
                        "in, which is part of the campaign fingerprint";
    const std::string path =
        testing::TempDir() + "crnet_journal_golden_fresh.jnl";
    std::remove(path.c_str());
    runCampaign(campConfig(path), nullptr);

    std::vector<std::uint8_t> have;
    std::vector<std::uint8_t> want;
    ASSERT_EQ(readFileBytes(path, have), "");
    ASSERT_EQ(readFileBytes(goldenJournalPath(), want), "");
    ASSERT_EQ(have.size(), want.size());
    EXPECT_TRUE(have == want);
    std::remove(path.c_str());
}

TEST(CampaignJournalGolden, ResumeFromCommittedJournalReproducesSummary)
{
    if (!CRNET_AUDIT_ENABLED)
        GTEST_SKIP() << "fixture was written with the audit compiled "
                        "in, which is part of the campaign fingerprint";
    std::vector<std::uint8_t> bytes;
    ASSERT_EQ(readFileBytes(goldenJournalPath(), bytes), "");
    const std::string path =
        testing::TempDir() + "crnet_journal_golden_resume.jnl";
    ASSERT_EQ(atomicWriteFile(path, bytes), "");

    std::vector<TrialOutcome> refTrials;
    const CampaignSummary ref =
        runCampaign(campConfig(""), &refTrials);
    std::vector<TrialOutcome> resTrials;
    const CampaignSummary res =
        runCampaign(campConfig(path), &resTrials);
    EXPECT_EQ(res.resumedTrials, res.trials);
    expectSummariesEqual(ref, res);
    expectTrialsEqual(refTrials, resTrials);
    std::remove(path.c_str());
}

TEST(CampaignWatchdog, QuarantinesBudgetExhaustedTrials)
{
    // A zero drain budget cannot quiesce a loaded network: every
    // trial exhausts its (never-growing) budget and must surface as
    // the explicit quarantine fate — counted, reported, not dropped.
    CampaignConfig cc = campConfig("");
    cc.trials = 2;
    cc.drainCap = 0;
    cc.trialRetries = 0;
    std::vector<TrialOutcome> trials;
    const CampaignSummary s = runCampaign(cc, &trials);
    ASSERT_EQ(trials.size(), 2u);
    EXPECT_EQ(s.quarantinedTrials, 2u);
    EXPECT_EQ(s.accountedTrials, 0u);
    for (const TrialOutcome& t : trials) {
        EXPECT_TRUE(t.quarantined);
        EXPECT_FALSE(t.fullyAccounted);
        EXPECT_EQ(t.budgetRetries, 0u);
    }
}

TEST(CampaignWatchdog, RetryLadderClearsTransientBudgetShortfalls)
{
    // With a tiny-but-growable budget the doubled retries eventually
    // drain; the outcome records how many re-runs it took and the
    // fates match an ample-budget reference.
    CampaignConfig tight = campConfig("");
    tight.trials = 2;
    tight.drainCap = 64;
    tight.trialRetries = 16;
    std::vector<TrialOutcome> trials;
    const CampaignSummary s = runCampaign(tight, &trials);
    EXPECT_EQ(s.quarantinedTrials, 0u);
    for (const TrialOutcome& t : trials)
        EXPECT_FALSE(t.quarantined);
}

} // namespace
} // namespace crnet
