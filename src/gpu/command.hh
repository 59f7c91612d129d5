/**
 * @file
 * GPU commands: what the CPU pushes through the command queues.
 *
 * The paper's command taxonomy (Section 2.1): kernel launches go to
 * the execution engine, data-transfer commands go to the transfer
 * engine.  Commands carry their context, their process priority and a
 * monotonically increasing sequence number that defines FCFS arrival
 * order across the whole device.
 *
 * Commands sit on the workload layer's per-event hot path: a
 * replaying process creates, routes and retires one per trace op per
 * replay, and each one changes hands many times (stream -> submission
 * pipe -> hardware queue -> engine -> completion).  CommandPtr is
 * therefore an intrusive, NON-atomic reference-counted pointer — the
 * simulation is single-threaded by design, so every copy is a plain
 * integer bump instead of the contended atomic a shared_ptr pays —
 * and CommandPool recycles the underlying blocks through a free list
 * so steady-state replay performs no heap allocation for commands
 * (see DESIGN.md §7).
 */

#ifndef GPUMP_GPU_COMMAND_HH
#define GPUMP_GPU_COMMAND_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/types.hh"
#include "trace/kernel_profile.hh"

namespace gpump {
namespace gpu {

class CommandQueue;
class CommandPool;
class GpuContext;
struct Command;

/**
 * Intrusive reference-counted handle to a Command.
 *
 * Semantics match shared_ptr where the simulator uses it (copy, move,
 * null tests, get/deref) but the count is a plain integer: commands
 * belong to exactly one single-threaded simulation and never cross
 * threads.  When the last handle drops, the command returns to its
 * CommandPool.
 */
class CommandPtr
{
  public:
    CommandPtr() noexcept = default;
    CommandPtr(std::nullptr_t) noexcept {}
    CommandPtr(const CommandPtr &other) noexcept : p_(other.p_)
    {
        retain();
    }
    CommandPtr(CommandPtr &&other) noexcept : p_(other.p_)
    {
        other.p_ = nullptr;
    }
    CommandPtr &operator=(const CommandPtr &other) noexcept
    {
        CommandPtr(other).swap(*this);
        return *this;
    }
    CommandPtr &operator=(CommandPtr &&other) noexcept
    {
        CommandPtr(std::move(other)).swap(*this);
        return *this;
    }
    CommandPtr &operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }
    ~CommandPtr() { release(); }

    void reset() noexcept
    {
        release();
        p_ = nullptr;
    }
    void swap(CommandPtr &other) noexcept { std::swap(p_, other.p_); }

    Command *get() const noexcept { return p_; }
    Command &operator*() const noexcept { return *p_; }
    Command *operator->() const noexcept { return p_; }
    explicit operator bool() const noexcept { return p_ != nullptr; }

    friend bool operator==(const CommandPtr &a, const CommandPtr &b) noexcept
    {
        return a.p_ == b.p_;
    }
    friend bool operator!=(const CommandPtr &a, const CommandPtr &b) noexcept
    {
        return a.p_ != b.p_;
    }
    friend bool operator==(const CommandPtr &a, std::nullptr_t) noexcept
    {
        return a.p_ == nullptr;
    }
    friend bool operator!=(const CommandPtr &a, std::nullptr_t) noexcept
    {
        return a.p_ != nullptr;
    }
    friend bool operator==(std::nullptr_t, const CommandPtr &a) noexcept
    {
        return a.p_ == nullptr;
    }
    friend bool operator!=(std::nullptr_t, const CommandPtr &a) noexcept
    {
        return a.p_ != nullptr;
    }

  private:
    friend struct Command;
    friend class CommandPool;

    /** Take ownership of a freshly constructed command (refs 0 -> 1). */
    static CommandPtr adopt(Command *c) noexcept;

    inline void retain() noexcept;
    inline void release() noexcept;

    Command *p_ = nullptr;
};

/** One command as seen by the hardware. */
struct Command
{
    enum class Kind
    {
        KernelLaunch,
        MemcpyH2D,
        MemcpyD2H,
    };

    Kind kind = Kind::KernelLaunch;
    /** Issuing GPU context. */
    sim::ContextId ctx = sim::invalidContext;
    /** Process priority (higher value = more important). */
    int priority = 0;
    /** Device-wide arrival sequence number (FCFS order). */
    std::uint64_t seq = 0;
    /** Time the command entered the hardware queue. */
    sim::SimTime enqueuedAt = 0;

    /** KernelLaunch: the kernel to execute. */
    const trace::KernelProfile *profile = nullptr;
    /** Memcpy*: payload size in bytes. */
    std::int64_t bytes = 0;

    /** Hardware queue the command was popped from (set on enqueue);
     *  engines use it to re-enable the queue on completion. */
    CommandQueue *queue = nullptr;

    /** Context whose outstanding-command count this command holds
     *  (set by Stream::enqueue; null for commands injected directly
     *  into the dispatcher by tests).  Decremented by complete()
     *  before onComplete runs, exactly as the stream's completion
     *  chain always behaved. */
    GpuContext *notifyCtx = nullptr;

    /** Invoked exactly once when the command completes. */
    std::function<void()> onComplete;

    bool isKernel() const { return kind == Kind::KernelLaunch; }
    bool isTransfer() const { return !isKernel(); }

    /**
     * Run the completion protocol: the context's outstanding count is
     * decremented first (device synchronisation may release waiters),
     * then onComplete (if any) runs.  Engines call this exactly once
     * per command, after re-enabling the hardware queue.
     */
    void complete();

  private:
    friend class CommandPtr;
    friend class CommandPool;

    /** Last reference dropped: destroy, and recycle the block. */
    static void dispose(Command *c) noexcept;

    /** Intrusive reference count (non-atomic by design — see file
     *  comment). */
    std::uint32_t refs_ = 0;
    /** Owning pool the block returns to. */
    CommandPool *pool_ = nullptr;
};

inline void
CommandPtr::retain() noexcept
{
    if (p_ != nullptr)
        ++p_->refs_;
}

inline void
CommandPtr::release() noexcept
{
    if (p_ != nullptr && --p_->refs_ == 0)
        Command::dispose(p_);
}

inline CommandPtr
CommandPtr::adopt(Command *c) noexcept
{
    CommandPtr p;
    p.p_ = c;
    c->refs_ = 1;
    return p;
}

/**
 * Recycling arena for commands.
 *
 * makeKernel/makeMemcpy return CommandPtrs whose storage comes from a
 * free list of fixed-size blocks; when the last reference drops, the
 * block is parked for reuse instead of freed.  Steady-state replay
 * therefore allocates nothing per command.
 *
 * Every command is drawn from a pool.  Lifetime contract: the pool
 * must outlive every command drawn from it (workload::Device declares
 * its pool ahead of the engines so destruction order guarantees
 * this).  NOT thread-safe: one pool belongs to one single-threaded
 * simulation.
 */
class CommandPool
{
  public:
    CommandPool() = default;
    CommandPool(const CommandPool &) = delete;
    CommandPool &operator=(const CommandPool &) = delete;
    ~CommandPool();

    /** A kernel launch of @p profile, or a copy of @p bytes in
     *  @p direction, issued by @p ctx at @p priority. @{ */
    CommandPtr makeKernel(sim::ContextId ctx, int priority,
                          const trace::KernelProfile *profile);
    CommandPtr makeMemcpy(sim::ContextId ctx, int priority,
                          Command::Kind direction, std::int64_t bytes);
    /** @} */

    /** @name Observability (tests of the recycling behaviour)
     * @{ */
    /** Blocks ever carved from the heap; plateaus at the peak number
     *  of concurrently live commands. */
    std::size_t blocksAllocated() const { return allocated_; }
    /** @} */

  private:
    friend struct Command;

    /** Fresh default-constructed command on a pooled block. */
    Command *acquire();
    /** Called by Command::dispose after destruction. */
    void recycle(void *block) noexcept { free_.push_back(block); }

    std::vector<void *> free_;
    std::size_t allocated_ = 0;
};

} // namespace gpu
} // namespace gpump

#endif // GPUMP_GPU_COMMAND_HH
