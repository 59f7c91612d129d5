/**
 * @file
 * GPU architecture parameters (Table 2) and the static-partitioning
 * occupancy model (Section 2.3).
 *
 * The defaults describe the NVIDIA GK110 / Tesla K20c configuration
 * the paper simulates: 13 SMs with 32 pipelines each, 65536 registers
 * and 2048 thread slots per SM, at most 16 resident thread blocks,
 * and 16/32/48 KB shared-memory configurations.
 */

#ifndef GPUMP_GPU_GPU_CONFIG_HH
#define GPUMP_GPU_GPU_CONFIG_HH

#include <cstdint>
#include <vector>

#include "sim/config.hh"
#include "sim/types.hh"
#include "trace/kernel_profile.hh"

namespace gpump {
namespace gpu {

/** Architecture and timing parameters of the modelled GPU. */
struct GpuParams
{
    /** @name Table 2 architecture parameters
     * @{ */
    int numSms = 13;
    double clockGhz = 0.706;
    int pipelinesPerSm = 32;
    int regsPerSm = 65536;
    int maxThreadsPerSm = 2048;
    int maxTbSlotsPerSm = 16;
    /** Selectable shared-memory configurations, ascending (bytes). */
    std::vector<int> shmemConfigs{16 * 1024, 32 * 1024, 48 * 1024};
    /** @} */

    /** @name Timing model knobs
     * @{ */
    /** SM driver setup of an SM before issuing thread blocks. */
    sim::SimTime smSetupLatency = sim::microseconds(1.0);
    /** Extra setup cost when the SM is re-targeted to a different
     *  context (loading the context id and page table registers). */
    sim::SimTime contextLoadLatency = sim::microseconds(0.5);
    /** Pipeline drain before the context-save trap can run (precise
     *  exceptions, Section 3.2). */
    sim::SimTime pipelineDrainLatency = sim::microseconds(0.5);
    /** CPU-to-GPU command submission latency. */
    sim::SimTime commandSubmitLatency = sim::microseconds(5.0);
    /** Coefficient of variation of thread-block durations (lognormal);
     *  0 replays the profile means exactly. */
    double tbTimeCv = 0.0;
    /** Number of hardware command queues (Hyper-Q). */
    int numHwQueues = 32;
    /** @} */

    /** Build from config keys "gpu.*" with Table 2 defaults. */
    static GpuParams fromConfig(const sim::Config &cfg);
};

/**
 * The shared-memory configuration the SM uses for @p k: the first
 * (smallest) configuration that fits the kernel's per-TB usage
 * (paper, footnote 1).  Raises fatal() when none fits.
 */
int selectShmemConfig(const trace::KernelProfile &k, const GpuParams &p);

/**
 * Static-partitioning occupancy: how many thread blocks of @p k fit
 * on one SM, limited by the first fully used resource (registers,
 * shared memory, thread slots or TB slots).  Raises fatal() when even
 * a single TB does not fit.
 *
 * Reproduces the "TBs/SM" column of Table 1 for all 24 kernels.
 */
int maxTbsPerSm(const trace::KernelProfile &k, const GpuParams &p);

/**
 * Bytes of architectural state a fully occupied SM holds for @p k:
 * occupancy x (register allocation + shared-memory partition).
 * This is what the context-switch mechanism moves to memory.
 */
std::int64_t smContextBytes(const trace::KernelProfile &k,
                            const GpuParams &p);

/**
 * Fraction of the SM's context storage (register file plus largest
 * shared-memory configuration) that @p k occupies when fully
 * resident.  Reproduces the "Resour./SM %" column of Table 1.
 */
double smResourceFraction(const trace::KernelProfile &k,
                          const GpuParams &p);

} // namespace gpu
} // namespace gpump

#endif // GPUMP_GPU_GPU_CONFIG_HH
