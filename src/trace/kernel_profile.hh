/**
 * @file
 * Per-kernel execution profiles (the rows of Table 1 of the paper).
 *
 * A KernelProfile carries everything the GPU model needs to replay a
 * kernel at thread-block granularity:
 *  - grid shape (thread block count) and per-TB duration;
 *  - per-TB resource demands (registers, shared memory, threads) that
 *    determine static-partitioning occupancy;
 *  - the derived context footprint used by the context-switch
 *    preemption mechanism.
 *
 * The per-TB duration is the paper's "Time/TB" column; see DESIGN.md
 * for why that column (rather than the measured kernel wall time) is
 * the authoritative input to the simulation.
 */

#ifndef GPUMP_TRACE_KERNEL_PROFILE_HH
#define GPUMP_TRACE_KERNEL_PROFILE_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace gpump {
namespace trace {

/** Bytes of storage one architectural register occupies. */
constexpr std::int64_t bytesPerRegister = 4;

/** Static description of one GPU kernel (one Table 1 row). */
struct KernelProfile
{
    /** Owning benchmark, e.g. "lbm". */
    std::string benchmark;
    /** Kernel name, e.g. "StreamCollide". */
    std::string kernel;

    /** Number of launches per application execution (Table 1). */
    int launches = 1;
    /** Measured kernel wall time on the K20c, microseconds (Table 1).
     *  Kept for regenerating Table 1; the simulation derives kernel
     *  times from timePerTbUs instead. */
    double avgTimeUs = 0.0;
    /** Thread blocks per launch (Table 1). */
    int numThreadBlocks = 1;
    /** Mean thread-block execution time, microseconds (Table 1). */
    double timePerTbUs = 0.0;
    /** Shared memory per thread block, bytes (Table 1). */
    int sharedMemPerTb = 0;
    /** Architectural registers per thread block (Table 1). */
    int regsPerTb = 0;
    /** Threads per thread block.  Not published; values chosen from
     *  the Parboil sources such that the published occupancy of every
     *  kernel is reproduced (see DESIGN.md). */
    int threadsPerTb = 1;

    /**
     * Bytes that must be saved/restored per thread block on a context
     * switch: the register allocation plus the shared-memory
     * partition.  Validated against Table 1 ("Save Time" column).
     */
    std::int64_t contextBytesPerTb() const
    {
        return bytesPerRegister * regsPerTb + sharedMemPerTb;
    }

    /** Mean thread-block duration as SimTime. */
    sim::SimTime tbDuration() const
    {
        return sim::microseconds(timePerTbUs);
    }

    /** "benchmark.kernel" for messages and stats. */
    std::string fullName() const { return benchmark + "." + kernel; }
};

/** A one-launch kernel of @p num_tbs blocks of @p tb_us each, with
 *  direct control of the per-block demands that set occupancy (the
 *  defaults run 16 blocks per SM of the Table 2 GPU).  For the
 *  examples and tests that place kernels by hand. */
KernelProfile makeProfile(const std::string &name, int num_tbs,
                          double tb_us, int regs_per_tb = 4096,
                          int shmem_per_tb = 0, int threads_per_tb = 128);

} // namespace trace
} // namespace gpump

#endif // GPUMP_TRACE_KERNEL_PROFILE_HH
