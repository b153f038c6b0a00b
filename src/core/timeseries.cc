#include "src/core/timeseries.hh"

#include <ostream>

#include "src/core/metrics.hh"
#include "src/sim/log.hh"
#include "src/sim/snapshot.hh"
#include "src/sim/table.hh"

namespace crnet {

TimeSeries::TimeSeries(Cycle interval) : interval_(interval)
{
    if (interval_ < 1)
        panic("TimeSeries interval must be >= 1");
}

TimeSeriesSample
TimeSeries::build(Cycle now, const NetworkStats& stats,
                  std::uint64_t in_flight_worms,
                  std::uint64_t buffered_flits) const
{
    const double lat_sum = stats.totalLatency.sum();
    const std::uint64_t lat_count = stats.totalLatency.count();

    TimeSeriesSample s;
    s.at = now;
    s.delivered = stats.messagesDelivered.value() - lastDelivered_;
    s.payloadFlits =
        stats.measuredPayloadFlits.value() - lastPayload_;
    s.kills = stats.sourceKills.value() +
              stats.router.pathWideKills.value() - lastKills_;
    s.retransmits = stats.abortedByBkill.value() - lastRetrans_;
    s.faultEvents = stats.faultEventsApplied.value() - lastFaults_;
    if (lat_count > lastLatencyCount_) {
        s.meanLatency = (lat_sum - lastLatencySum_) /
                        static_cast<double>(lat_count -
                                            lastLatencyCount_);
    }
    s.inFlightWorms = in_flight_worms;
    s.bufferedFlits = buffered_flits;
    return s;
}

void
TimeSeries::sample(Cycle now, const NetworkStats& stats,
                   std::uint64_t in_flight_worms,
                   std::uint64_t buffered_flits)
{
    samples_.push_back(
        build(now, stats, in_flight_worms, buffered_flits));

    lastDelivered_ = stats.messagesDelivered.value();
    lastPayload_ = stats.measuredPayloadFlits.value();
    lastKills_ = stats.sourceKills.value() +
                 stats.router.pathWideKills.value();
    lastRetrans_ = stats.abortedByBkill.value();
    lastFaults_ = stats.faultEventsApplied.value();
    lastLatencySum_ = stats.totalLatency.sum();
    lastLatencyCount_ = stats.totalLatency.count();
}

TimeSeriesSample
TimeSeries::peekTail(Cycle now, const NetworkStats& stats,
                     std::uint64_t in_flight_worms,
                     std::uint64_t buffered_flits) const
{
    return build(now, stats, in_flight_worms, buffered_flits);
}

template <typename Io>
void
TimeSeries::serialize(Io& io)
{
    lengthPrefixed(io, samples_, [&io](TimeSeriesSample& s) {
        io.u64(s.at);
        io.u64(s.delivered);
        io.u64(s.payloadFlits);
        io.f64(s.meanLatency);
        io.u64(s.kills);
        io.u64(s.retransmits);
        io.u64(s.faultEvents);
        io.u64(s.inFlightWorms);
        io.u64(s.bufferedFlits);
    });
    io.u64(lastDelivered_);
    io.u64(lastPayload_);
    io.u64(lastKills_);
    io.u64(lastRetrans_);
    io.u64(lastFaults_);
    io.f64(lastLatencySum_);
    io.u64(lastLatencyCount_);
}

template void TimeSeries::serialize(StateWriter&);
template void TimeSeries::serialize(StateReader&);

void
writeTimeSeriesCsv(std::ostream& os,
                   const std::vector<TimeSeriesSample>& samples)
{
    Table t("timeseries");
    t.setHeader({"cycle", "delivered", "payload_flits", "mean_latency",
                 "kills", "retransmits", "fault_events",
                 "inflight_worms", "buffered_flits"});
    for (const TimeSeriesSample& s : samples) {
        t.addRow({Table::cell(s.at), Table::cell(s.delivered),
                  Table::cell(s.payloadFlits),
                  Table::cell(s.meanLatency, 2), Table::cell(s.kills),
                  Table::cell(s.retransmits), Table::cell(s.faultEvents),
                  Table::cell(s.inFlightWorms),
                  Table::cell(s.bufferedFlits)});
    }
    t.printCsv(os);
}

void
writeHeatmapCsv(std::ostream& os, const HeatmapData& heat)
{
    const auto nodes =
        static_cast<NodeId>(heat.occupancyIntegral.size());
    Table t("heatmap");
    std::vector<std::string> header{"node", "x", "y", "occ_integral",
                                    "blocked_cycles"};
    for (PortId p = 0; p < heat.netPorts; ++p) {
        header.push_back("fwd_p" + std::to_string(p));
        header.push_back("blk_p" + std::to_string(p));
    }
    t.setHeader(std::move(header));
    for (NodeId n = 0; n < nodes; ++n) {
        std::vector<std::string> row;
        row.push_back(Table::cell(static_cast<std::uint64_t>(n)));
        row.push_back(Table::cell(
            static_cast<std::uint64_t>(n % heat.radixK)));
        row.push_back(Table::cell(
            static_cast<std::uint64_t>(n / heat.radixK % heat.radixK)));
        row.push_back(Table::cell(heat.occupancyIntegral[n]));
        std::uint64_t blocked = 0;
        for (PortId p = 0; p < heat.netPorts; ++p)
            blocked += heat.blockedCycles[
                static_cast<std::size_t>(n) * heat.netPorts + p];
        row.push_back(Table::cell(blocked));
        for (PortId p = 0; p < heat.netPorts; ++p) {
            const std::size_t i =
                static_cast<std::size_t>(n) * heat.netPorts + p;
            row.push_back(Table::cell(heat.forwarded[i]));
            row.push_back(Table::cell(heat.blockedCycles[i]));
        }
        t.addRow(std::move(row));
    }
    t.printCsv(os);
}

} // namespace crnet
