/**
 * @file
 * Config-grid golden: RunResult digests of small configurations that
 * reach router, injector, receiver and topology code the perfbench
 * workloads do not (VC counts and buffer depths that wrap the FIFOs at
 * every index, multiple injection/ejection channels, 3-D tori and
 * meshes, DOR/Duato datelines, router-side timeouts, static backoff,
 * unordered destinations, FCR misrouting under transient faults).
 *
 * tests/fixtures/hotpath_grid_v1.txt holds one `name digest` line per
 * configuration. The digest is FNV-1a over every simulated RunResult
 * field, the same fold perfbench applies, so a hot-path rewrite that
 * moves a single RNG draw, arbitration decision or flit shows up as a
 * changed line. The test prints every computed line, so a deliberate
 * model change regenerates the fixture from its own output.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/experiment.hh"

namespace crnet {
namespace {

/** FNV-1a over a RunResult's simulated fields (doubles by bits). */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    void
    add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }

    void add(bool v) { add(std::uint64_t{v ? 1u : 0u}); }

    void
    add(const RunResult& r)
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

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** 8-ary 2-cube CR at a load that keeps kills and retries busy. */
SimConfig
base()
{
    SimConfig c;
    c.radixK = 8;
    c.dimensionsN = 2;
    c.numVcs = 2;
    c.bufferDepth = 2;
    c.protocol = ProtocolKind::Cr;
    c.timeout = 8;
    c.injectionRate = 0.25;
    c.messageLength = 8;
    c.warmupCycles = 300;
    c.measureCycles = 800;
    c.drainCycles = 1500;
    c.seed = 7;
    return c;
}

struct GridPoint
{
    const char* name;
    std::function<void(SimConfig&)> edit;
};

const std::vector<GridPoint>&
grid()
{
    static const std::vector<GridPoint> points = {
        {"vcs1_depth1",
         [](SimConfig& c) {
             c.numVcs = 1;
             c.bufferDepth = 1;
         }},
        {"vcs3_depth3",
         [](SimConfig& c) {
             c.numVcs = 3;
             c.bufferDepth = 3;
         }},
        {"vcs4_depth5",
         [](SimConfig& c) {
             c.numVcs = 4;
             c.bufferDepth = 5;
         }},
        {"channels2",
         [](SimConfig& c) {
             c.injectionChannels = 2;
             c.ejectionChannels = 2;
             c.numVcs = 3;
         }},
        {"torus3d",
         [](SimConfig& c) {
             c.radixK = 4;
             c.dimensionsN = 3;
         }},
        {"mesh2d",
         [](SimConfig& c) {
             c.topology = TopologyKind::Mesh;
             c.radixK = 6;
         }},
        {"dor_dateline",
         [](SimConfig& c) {
             c.routing = RoutingKind::DimensionOrder;
             c.numVcs = 3;
         }},
        {"duato",
         [](SimConfig& c) {
             c.routing = RoutingKind::Duato;
             c.numVcs = 3;
         }},
        {"pathwide",
         [](SimConfig& c) {
             c.timeoutScheme = TimeoutScheme::PathWide;
             c.timeout = 16;
         }},
        {"drop_at_block",
         [](SimConfig& c) {
             c.timeoutScheme = TimeoutScheme::DropAtBlock;
             c.timeout = 16;
         }},
        {"static_backoff_imin",
         [](SimConfig& c) {
             c.backoff = BackoffScheme::Static;
             c.backoffGap = 5;
             c.timeoutScheme = TimeoutScheme::SourceImin;
         }},
        {"unordered_dests",
         [](SimConfig& c) {
             c.enforceDestOrder = false;
             c.injectionChannels = 2;
             c.pattern = TrafficPattern::Hotspot;
         }},
        {"fcr_misroute_transient",
         [](SimConfig& c) {
             c.protocol = ProtocolKind::Fcr;
             c.timeout = 32;
             c.misrouteAfterRetries = 1;
             c.misrouteBudget = 4;
             c.transientFaultRate = 2e-3;
             c.injectionRate = 0.15;
         }},
    };
    return points;
}

std::map<std::string, std::string>
readFixture()
{
    std::map<std::string, std::string> want;
    std::ifstream in(std::string(CRNET_TEST_FIXTURE_DIR) +
                     "/hotpath_grid_v1.txt");
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name, digest;
        fields >> name >> digest;
        want[name] = digest;
    }
    return want;
}

TEST(HotpathGrid, RunResultDigestsMatchCommittedFixture)
{
    const auto want = readFixture();
    ASSERT_EQ(want.size(), grid().size())
        << "fixture hotpath_grid_v1.txt missing or incomplete";
    for (const GridPoint& p : grid()) {
        SimConfig cfg = base();
        p.edit(cfg);
        Digest d;
        d.add(runExperiment(cfg));
        std::printf("%s %s\n", p.name, d.hex().c_str());
        const auto it = want.find(p.name);
        ASSERT_NE(it, want.end()) << p.name << " not in fixture";
        EXPECT_EQ(d.hex(), it->second) << p.name;
    }
}

} // namespace
} // namespace crnet
