#include "gpu/command.hh"

#include <new>

#include "core/audit.hh"
#include "gpu/gpu_context.hh"
#include "sim/logging.hh"

namespace gpump {
namespace gpu {

void
Command::complete()
{
    if (notifyCtx != nullptr)
        notifyCtx->commandCompleted();
    if (onComplete)
        onComplete();
}

void
Command::dispose(Command *c) noexcept
{
    // A disposed command must really be unreferenced: a nonzero count
    // here means a CommandPtr still points at the block about to be
    // recycled, and the next acquire() would alias it.
    GPUMP_AUDIT(c->refs_ == 0,
                "command disposed with %u live references", c->refs_);
    CommandPool *pool = c->pool_;
    c->~Command();
    pool->recycle(c);
}

CommandPool::~CommandPool()
{
    for (void *block : free_)
        ::operator delete(block);
}

Command *
CommandPool::acquire()
{
    void *block;
    if (!free_.empty()) {
        block = free_.back();
        free_.pop_back();
    } else {
        block = ::operator new(sizeof(Command));
        ++allocated_;
    }
    Command *cmd = new (block) Command;
    cmd->pool_ = this;
    // Free-list discipline: the pool can never have handed out more
    // blocks than it ever allocated, or recycle() double-stacked one.
    GPUMP_AUDIT(free_.size() <= allocated_,
                "command pool free list (%zu) outgrew its %zu "
                "allocations (double recycle)",
                free_.size(), allocated_);
    return cmd;
}

CommandPtr
CommandPool::makeKernel(sim::ContextId ctx, int priority,
                        const trace::KernelProfile *profile)
{
    // Validate before acquire(), so a panicking argument never leaks
    // a block.
    GPUMP_ASSERT(profile != nullptr, "kernel command without a profile");
    Command *cmd = acquire();
    cmd->kind = Command::Kind::KernelLaunch;
    cmd->ctx = ctx;
    cmd->priority = priority;
    cmd->profile = profile;
    return CommandPtr::adopt(cmd);
}

CommandPtr
CommandPool::makeMemcpy(sim::ContextId ctx, int priority,
                        Command::Kind direction, std::int64_t bytes)
{
    GPUMP_ASSERT(direction != Command::Kind::KernelLaunch,
                 "memcpy command with kernel kind");
    GPUMP_ASSERT(bytes >= 0, "negative memcpy size");
    Command *cmd = acquire();
    cmd->kind = direction;
    cmd->ctx = ctx;
    cmd->priority = priority;
    cmd->bytes = bytes;
    return CommandPtr::adopt(cmd);
}

} // namespace gpu
} // namespace gpump
