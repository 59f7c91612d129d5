#include "workload/host_cpu.hh"

#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace gpump {
namespace workload {

CpuParams
CpuParams::fromConfig(const sim::Config &cfg)
{
    CpuParams p;
    p.cores = cfg.getInt32("cpu.cores", p.cores);
    p.threadsPerCore =
        cfg.getInt32("cpu.threads_per_core", p.threadsPerCore);
    p.clockGhz = cfg.getDouble("cpu.clock_ghz", p.clockGhz);
    if (p.cores <= 0)
        sim::fatal("cpu.cores must be positive, got %d", p.cores);
    if (p.threadsPerCore <= 0)
        sim::fatal("cpu.threads_per_core must be positive, got %d",
                   p.threadsPerCore);
    if (p.clockGhz <= 0)
        sim::fatal("cpu.clock_ghz must be positive, got %g", p.clockGhz);
    return p;
}

HostCpu::HostCpu(sim::Simulation &sim, const CpuParams &params)
    : params_(params), hwThreads_(params.hwThreads()),
      phases_(sim.stats(), "cpu.phases", "CPU phases executed"),
      oversubscribedPhases_(sim.stats(), "cpu.oversubscribed_phases",
                            "phases started with more runnable threads "
                            "than hardware threads")
{
}

} // namespace workload
} // namespace gpump
