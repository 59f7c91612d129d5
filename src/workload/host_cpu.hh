/**
 * @file
 * Coarse-grained multicore CPU model (Section 4.1 / Table 2).
 *
 * The paper models the CPU coarsely: application CPU phases come from
 * trace timestamps, and the simulated machine (4 cores, 2-way SMT)
 * has at least as many hardware threads as the largest workload has
 * processes.  This model reproduces that: phases run at full speed
 * until more processes compute simultaneously than hardware threads
 * exist, at which point new phases are stretched proportionally.
 */

#ifndef GPUMP_WORKLOAD_HOST_CPU_HH
#define GPUMP_WORKLOAD_HOST_CPU_HH

#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace gpump {
namespace sim {
class Simulation;
}
namespace workload {

/** Table 2 CPU parameters. */
struct CpuParams
{
    int cores = 4;
    int threadsPerCore = 2;
    double clockGhz = 2.8;

    int hwThreads() const { return cores * threadsPerCore; }

    /** Build from config keys "cpu.*". */
    static CpuParams fromConfig(const sim::Config &cfg);
};

/** The host CPU: tracks how many processes compute simultaneously.
 *  The per-phase methods are inline: every replayed CPU phase passes
 *  through begin/slowdown/end, so they sit on the workload layer's
 *  per-event hot path. */
class HostCpu
{
  public:
    HostCpu(sim::Simulation &sim, const CpuParams &params);

    const CpuParams &params() const { return params_; }

    /** A process enters a CPU phase. */
    void beginPhase()
    {
        ++running_;
        ++phases_;
        if (running_ > hwThreads_)
            ++oversubscribedPhases_;
    }

    /** A process leaves its CPU phase. */
    void endPhase()
    {
        GPUMP_ASSERT(running_ > 0, "endPhase with no phase running");
        --running_;
    }

    /** Number of processes currently in a CPU phase. */
    int running() const { return running_; }

    /**
     * Stretch factor applied to a phase *starting now*: 1.0 while the
     * machine is not oversubscribed, runnable/hwThreads beyond that.
     * (Coarse: the factor is sampled at phase start, matching the
     * granularity of the paper's CPU model.)
     */
    double slowdownFactor() const
    {
        if (running_ <= hwThreads_)
            return 1.0;
        return static_cast<double>(running_) /
            static_cast<double>(hwThreads_);
    }

  private:
    CpuParams params_;
    /** params_.hwThreads(), precomputed off the per-phase path. */
    int hwThreads_;
    int running_ = 0;
    sim::Scalar phases_;
    sim::Scalar oversubscribedPhases_;
};

} // namespace workload
} // namespace gpump

#endif // GPUMP_WORKLOAD_HOST_CPU_HH
