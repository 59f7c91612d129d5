/**
 * @file
 * Hardware command queues and the command dispatcher (Section 2.2).
 *
 * The CPU issues commands into hardware queues (NVIDIA Hyper-Q).  The
 * dispatcher inspects the head of every queue and issues commands to
 * the matching engine: kernel launches to the execution engine (via
 * the scheduling framework's per-context command buffers) and data
 * transfers to the transfer engine.  After issuing from a queue the
 * dispatcher stops inspecting it until the engine reports the command
 * complete, which preserves the in-order semantics of the stream that
 * feeds the queue.
 */

#ifndef GPUMP_GPU_DISPATCHER_HH
#define GPUMP_GPU_DISPATCHER_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "gpu/command.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace gpump {
namespace gpu {

class TransferEngine;

/**
 * Consumer of kernel-launch commands.  Implemented by the scheduling
 * framework (core/framework.hh): offerKernel places the command into
 * the per-context command buffer when that buffer is free.
 */
class KernelSink
{
  public:
    virtual ~KernelSink() = default;

    /**
     * Try to accept @p cmd.
     * @return false when the context's command buffer is occupied;
     *         the dispatcher will retry after kernelBufferFreed().
     */
    virtual bool offerKernel(const CommandPtr &cmd) = 0;
};

/** One hardware command queue (one Hyper-Q channel). */
class CommandQueue
{
  public:
    CommandQueue(int index, sim::ContextId ctx)
        : index_(index), ctx_(ctx)
    {
    }

    int index() const { return index_; }
    sim::ContextId ctx() const { return ctx_; }
    bool busy() const { return busy_; }
    bool empty() const { return fifo_.empty(); }
    std::size_t depth() const { return fifo_.size(); }
    const CommandPtr &head() const { return fifo_.front(); }

  private:
    friend class Dispatcher;
    int index_;
    sim::ContextId ctx_;
    bool busy_ = false;          ///< issued command still in flight
    std::deque<CommandPtr> fifo_;
};

/** The command dispatcher. */
class Dispatcher
{
  public:
    Dispatcher(sim::Simulation &sim, TransferEngine &transfer_engine);

    /** Wire the execution-engine side (called once at assembly). */
    void setKernelSink(KernelSink *sink);

    /**
     * Create a hardware queue for @p ctx.  Raises fatal() when all
     * hardware queues are in use.
     *
     * @param max_queues the Hyper-Q queue count (GpuParams).
     */
    CommandQueue *createQueue(sim::ContextId ctx, int max_queues);

    /**
     * Push @p cmd into @p queue.  Stamps the device-wide arrival
     * sequence number and timestamp, then inspects queues.
     */
    void enqueue(CommandQueue *queue, const CommandPtr &cmd);

    /**
     * Stamp a driver-originated command (context save/restore,
     * residency swap) with the device-wide arrival sequence number and
     * timestamp without routing it through a hardware queue.  Such
     * commands are handed straight to an engine by their producer; the
     * stamp keeps priority tie-breaking and wait-time accounting
     * consistent with workload commands.
     */
    void stampInternal(const CommandPtr &cmd);

    /** Engine notification: the command issued from @p queue finished. */
    void onCommandCompleted(CommandQueue *queue);

    /** Framework notification: a command buffer slot opened up. */
    void onKernelBufferFreed();

  private:
    void inspect();

    sim::Simulation *sim_;
    TransferEngine *transferEngine_;
    KernelSink *kernelSink_ = nullptr;
    std::vector<std::unique_ptr<CommandQueue>> queues_;
    std::uint64_t nextSeq_ = 0;
    bool inspecting_ = false;
    bool reinspect_ = false;
    /** Queues whose head is actionable (!busy && !empty), maintained
     *  incrementally so inspect() can skip the all-queues scan when
     *  there is provably nothing to dispatch. */
    std::size_t readyQueues_ = 0;

    sim::Scalar dispatched_;
    sim::Scalar kernelStalls_;
};

} // namespace gpu
} // namespace gpump

#endif // GPUMP_GPU_DISPATCHER_HH
