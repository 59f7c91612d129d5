#include "memory/pcie.hh"

#include "sim/logging.hh"

namespace gpump {
namespace memory {

PcieParams
PcieParams::fromConfig(const sim::Config &cfg)
{
    PcieParams p;
    p.clockHz = cfg.getDouble("pcie.clock_hz", p.clockHz);
    p.lanes = cfg.getInt32("pcie.lanes", p.lanes);
    p.burstBytes = cfg.getInt("pcie.burst_bytes", p.burstBytes);
    p.bytesPerLanePerClock =
        cfg.getDouble("pcie.bytes_per_lane_per_clock", p.bytesPerLanePerClock);
    p.setupLatency =
        cfg.getMicroseconds("pcie.setup_latency_us", p.setupLatency);
    if (p.clockHz <= 0 || p.lanes <= 0 || p.burstBytes <= 0)
        sim::fatal("invalid PCIe parameters (clock/lanes/burst must be > 0)");
    return p;
}

PcieBus::PcieBus(sim::StatRegistry &stats, const PcieParams &params)
    : params_(params),
      bytesMoved_(stats, "pcie.bytes_moved", "payload bytes moved"),
      transfers_(stats, "pcie.transfers", "completed transfers"),
      busyTime_(stats, "pcie.busy_ns", "time the link was busy (ns)")
{
}

sim::SimTime
PcieBus::transferDuration(std::int64_t bytes) const
{
    GPUMP_ASSERT(bytes >= 0, "negative transfer size %lld",
                 static_cast<long long>(bytes));
    std::int64_t bursts =
        (bytes + params_.burstBytes - 1) / params_.burstBytes;
    double wire_bytes =
        static_cast<double>(bursts) * static_cast<double>(params_.burstBytes);
    return params_.setupLatency +
        sim::transferTime(wire_bytes, params_.bandwidth());
}

void
PcieBus::recordTransfer(std::int64_t bytes, sim::SimTime duration)
{
    bytesMoved_ += static_cast<double>(bytes);
    ++transfers_;
    busyTime_ += static_cast<double>(duration);
}

} // namespace memory
} // namespace gpump
