/**
 * @file
 * GPU physical memory model.
 *
 * Current-generation GPUs (our GK110 baseline included) do not demand
 * page: every allocation from every context must fit in device memory
 * (paper Section 2.2).  This model tracks per-context allocations
 * against the physical capacity and provides the bandwidth-share
 * arithmetic the context-switch preemption mechanism relies on
 * (Section 3.2 / Table 1: an SM saving its context gets 1/NSMs of the
 * 208 GB/s of global memory bandwidth).
 */

#ifndef GPUMP_MEMORY_GPU_MEMORY_HH
#define GPUMP_MEMORY_GPU_MEMORY_HH

#include <cstdint>
#include <map>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace gpump {
namespace memory {

/** Device-memory parameters (Table 2 / K20c defaults). */
struct GpuMemoryParams
{
    /** Global memory bandwidth in bytes/second (Table 2: 208 GB/s). */
    double bandwidth = 208e9;
    /** Physical capacity in bytes (K20c: 5 GB). */
    std::int64_t capacity = 5ll * 1000 * 1000 * 1000;
    /** When set, context save/restore bytes travel as first-class
     *  transfer commands on the transfer engine (contending with the
     *  workload's own DMA traffic) instead of being charged the
     *  contention-free bandwidth-share time below.  Off by default:
     *  the share model is what Table 1 validates. */
    bool contendedSwitch = false;

    /** Build from config keys "gmem.*". */
    static GpuMemoryParams fromConfig(const sim::Config &cfg);
};

/**
 * Tracks allocations per context and answers bandwidth-share timing
 * queries.
 */
class GpuMemory
{
  public:
    GpuMemory(sim::StatRegistry &stats, const GpuMemoryParams &params);

    const GpuMemoryParams &params() const { return params_; }

    /**
     * Allocate @p bytes on behalf of @p ctx.
     *
     * Raises fatal() when the device would be oversubscribed, mirroring
     * the out-of-memory failure a real allocation would report (no
     * swap-out exists on the modelled hardware).
     */
    void allocate(sim::ContextId ctx, std::int64_t bytes);

    /** Free everything @p ctx owns (context destruction). */
    void freeAll(sim::ContextId ctx);

    /** Bytes currently allocated by @p ctx. */
    std::int64_t allocated(sim::ContextId ctx) const;

    /** Bytes currently allocated across all contexts. */
    std::int64_t totalAllocated() const { return total_; }

    /**
     * The bandwidth one of @p shares equal consumers observes.
     * Used for context save/restore: an SM gets BW / NSMs.
     * @pre shares > 0
     */
    double bandwidthShare(int shares) const;

    /**
     * Time to move @p bytes at a 1/@p shares bandwidth share.
     * This is exactly the "Save Time" model validated against Table 1.
     * @pre bytes >= 0 (zero-byte moves take zero time, matching the
     *      zero-burst case of the PCIe path less its setup latency)
     */
    sim::SimTime moveTime(std::int64_t bytes, int shares) const;

  private:
    GpuMemoryParams params_;
    std::map<sim::ContextId, std::int64_t> perContext_;
    std::int64_t total_ = 0;
    sim::Scalar peakAllocated_;
    sim::Scalar allocCalls_;
};

} // namespace memory
} // namespace gpump

#endif // GPUMP_MEMORY_GPU_MEMORY_HH
