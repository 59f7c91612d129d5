#include "gpu/dispatcher.hh"

#include <utility>

#include "gpu/transfer_engine.hh"
#include "sim/logging.hh"

namespace gpump {
namespace gpu {

Dispatcher::Dispatcher(sim::Simulation &sim, TransferEngine &transfer_engine)
    : sim_(&sim), transferEngine_(&transfer_engine),
      dispatched_(sim.stats(), "dispatcher.commands",
                  "commands issued to engines"),
      kernelStalls_(sim.stats(), "dispatcher.kernel_stalls",
                    "kernel issues deferred on a full command buffer")
{
}

void
Dispatcher::setKernelSink(KernelSink *sink)
{
    GPUMP_ASSERT(kernelSink_ == nullptr, "kernel sink already wired");
    kernelSink_ = sink;
}

CommandQueue *
Dispatcher::createQueue(sim::ContextId ctx, int max_queues)
{
    if (static_cast<int>(queues_.size()) >= max_queues) {
        sim::fatal("out of hardware command queues (%d in use)",
                   max_queues);
    }
    queues_.push_back(std::make_unique<CommandQueue>(
        static_cast<int>(queues_.size()), ctx));
    return queues_.back().get();
}

void
Dispatcher::enqueue(CommandQueue *queue, const CommandPtr &cmd)
{
    GPUMP_ASSERT(queue != nullptr && cmd != nullptr,
                 "enqueue with null queue/command");
    cmd->seq = nextSeq_++;
    cmd->enqueuedAt = sim_->now();
    cmd->queue = queue;
    if (!queue->busy_ && queue->fifo_.empty())
        ++readyQueues_; // idle and empty -> head now actionable
    queue->fifo_.push_back(cmd);
    inspect();
}

void
Dispatcher::stampInternal(const CommandPtr &cmd)
{
    GPUMP_ASSERT(cmd != nullptr, "stamp of null command");
    GPUMP_ASSERT(cmd->queue == nullptr,
                 "internal command already bound to a hardware queue");
    cmd->seq = nextSeq_++;
    cmd->enqueuedAt = sim_->now();
}

void
Dispatcher::onCommandCompleted(CommandQueue *queue)
{
    GPUMP_ASSERT(queue != nullptr, "completion for null queue");
    GPUMP_ASSERT(queue->busy_, "completion for a queue with nothing issued");
    queue->busy_ = false;
    if (!queue->fifo_.empty())
        ++readyQueues_;
    inspect();
}

void
Dispatcher::onKernelBufferFreed()
{
    inspect();
}

void
Dispatcher::inspect()
{
    // Engines and the framework call back into the dispatcher
    // synchronously; flatten the recursion into a retry loop.
    if (inspecting_) {
        reinspect_ = true;
        return;
    }
    inspecting_ = true;
    do {
        reinspect_ = false;
        // readyQueues_ counts queues whose head is actionable (not
        // busy, non-empty); when it is zero — the common case after a
        // completion that empties its queue — the scan over every
        // hardware queue can be skipped entirely.  A scan with zero
        // ready queues would have dispatched nothing, so skipping it
        // is behaviour-preserving (kernel stalls leave their queue
        // counted ready and are rescanned on onKernelBufferFreed).
        if (readyQueues_ == 0)
            break;
        for (auto &q : queues_) {
            if (q->busy_ || q->fifo_.empty())
                continue;
            const CommandPtr &head = q->fifo_.front();
            if (head->isKernel()) {
                GPUMP_ASSERT(kernelSink_ != nullptr,
                             "kernel command with no execution engine");
                if (kernelSink_->offerKernel(head)) {
                    q->busy_ = true;
                    q->fifo_.pop_front();
                    --readyQueues_;
                    ++dispatched_;
                } else {
                    ++kernelStalls_;
                }
            } else {
                CommandPtr cmd = std::move(q->fifo_.front());
                q->busy_ = true;
                q->fifo_.pop_front();
                --readyQueues_;
                ++dispatched_;
                transferEngine_->submit(cmd);
            }
        }
    } while (reinspect_);
    inspecting_ = false;
}

} // namespace gpu
} // namespace gpump
