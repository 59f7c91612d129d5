/**
 * @file
 * GPU contexts: the per-process device state.
 *
 * Each process using the GPU gets its own context holding its GPU
 * address space and its streams (Section 2.1).  The multiprogramming
 * extensions make the execution engine aware of multiple active
 * contexts through the context table (Section 3.1); this class is one
 * entry of that table plus the software-visible bookkeeping
 * (outstanding commands for cudaDeviceSynchronize).  The address
 * space is not modelled page by page: the context's footprint is a
 * byte count that memory::ResidencyManager charges to GpuMemory, and
 * an SM switching to the context pays the load Sm::loadedContext
 * tracks.
 */

#ifndef GPUMP_GPU_GPU_CONTEXT_HH
#define GPUMP_GPU_GPU_CONTEXT_HH

#include <functional>
#include <vector>

#include "sim/types.hh"

namespace gpump {
namespace gpu {

/** One GPU context (one per process). */
class GpuContext
{
  public:
    /**
     * @param id      device-unique context id.
     * @param owner   owning process.
     * @param priority process priority used by priority schedulers.
     */
    GpuContext(sim::ContextId id, sim::ProcessId owner, int priority)
        : id_(id), owner_(owner), priority_(priority)
    {
    }

    sim::ContextId id() const { return id_; }
    sim::ProcessId owner() const { return owner_; }
    int priority() const { return priority_; }

    /** @name Outstanding-command tracking (device synchronisation)
     * @{ */
    void commandEnqueued() { ++outstanding_; }
    void commandCompleted();
    int outstanding() const { return outstanding_; }
    bool idle() const { return outstanding_ == 0; }

    /**
     * Invoke @p cb once all currently outstanding commands complete.
     * Called back immediately (synchronously) when already idle.
     */
    void waitIdle(std::function<void()> cb);
    /** @} */

  private:
    sim::ContextId id_;
    sim::ProcessId owner_;
    int priority_;
    int outstanding_ = 0;
    std::vector<std::function<void()>> waiters_;
    /** Reused firing list (capacity survives across device syncs) and
     *  its re-entrancy guard; see commandCompleted(). */
    std::vector<std::function<void()>> firingScratch_;
    bool firingWaiters_ = false;
};

} // namespace gpu
} // namespace gpump

#endif // GPUMP_GPU_GPU_CONTEXT_HH
