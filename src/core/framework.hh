/**
 * @file
 * The scheduling framework (Section 3.3) plus the extended SM driver
 * (Section 3.2, Figure 3).
 *
 * The framework owns the hardware structures that track kernels and
 * SMs — per-context command buffers, the active queue, the KSRT, the
 * SMST (realised as the Sm objects) and the PTBQs (inside KernelExec)
 * — and the driver logic that sets SMs up, issues thread blocks
 * (preempted ones first), reacts to completions and carries out
 * reservations through the pluggable preemption mechanism.
 *
 * The scheduling *policy* plugs in on top: the framework calls the
 * policy on the events of interest (command waiting, SM idle, kernel
 * finished, preemption complete) and the policy drives the framework
 * through admit / fillIdleSms / assignSm / reserveSm.
 */

#ifndef GPUMP_CORE_FRAMEWORK_HH
#define GPUMP_CORE_FRAMEWORK_HH

#include <memory>
#include <vector>

#include "core/observer.hh"
#include "core/preemption.hh"
#include "core/tables.hh"
#include "gpu/dispatcher.hh"
#include "gpu/gpu_config.hh"
#include "gpu/kernel_exec.hh"
#include "gpu/sm.hh"
#include "memory/gpu_memory.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"

namespace gpump {
namespace gpu {
class TransferEngine;
}
namespace memory {
class ResidencyManager;
}
namespace core {

class SchedulingPolicy;

/** The execution engine's scheduling framework + SM driver. */
class SchedulingFramework : public gpu::KernelSink
{
  public:
    /**
     * @param xfer the transfer engine carrying contended context
     *             save/restore traffic and residency swaps (not owned).
     * @param pool the command pool those transfer commands are drawn
     *             from (not owned).
     */
    SchedulingFramework(sim::Simulation &sim, const gpu::GpuParams &params,
                        memory::GpuMemory &gmem,
                        gpu::Dispatcher &dispatcher,
                        gpu::TransferEngine &xfer, gpu::CommandPool &pool);
    ~SchedulingFramework() override;

    /** @name Assembly
     * @{ */
    void setPolicy(std::unique_ptr<SchedulingPolicy> policy);
    void setMechanism(std::unique_ptr<PreemptionMechanism> mechanism);
    SchedulingPolicy &policy() { return *policy_; }
    PreemptionMechanism &mechanism() { return *mechanism_; }

    /**
     * Register an engine observer (assembly; not owned — a test
     * probe, or a mechanism or policy registering itself or a
     * predictor from its bind()).  Every hook site notifies the
     * observers in registration order; the list is empty in every
     * default assembly (see core/observer.hh for the contract).
     */
    void addObserver(EngineObserver *observer)
    {
        GPUMP_ASSERT(observer != nullptr, "null engine observer");
        observers_.push_back(observer);
    }

    /** Wire the residency manager enforcing device-memory capacity
     *  (assembly; every SM assignment waits on it).  Not owned. */
    void setResidency(memory::ResidencyManager *residency)
    {
        residency_ = residency;
    }
    /** @} */

    sim::Simulation &sim() { return *sim_; }
    const gpu::GpuParams &params() const { return params_; }
    memory::GpuMemory &gmem() { return *gmem_; }

    /** True when context save/restore bytes ride the transfer engine
     *  (gmem.contended_switch) instead of the bandwidth-share model. */
    bool contendedSwitch() const { return contendedSwitch_; }

    /** The transfer engine carrying contended context traffic.
     *  Mechanisms use it to model the queueing their own save would
     *  suffer (their DMA engine's state is driver-visible, not
     *  workload oracle). */
    const gpu::TransferEngine &transferEngine() const { return *xfer_; }

    /** @name Command buffers (dispatcher-facing)
     * @{ */
    bool offerKernel(const gpu::CommandPtr &cmd) override;

    /** Clear @p out and fill it with the contexts holding a buffered
     *  command, in arrival (seq) order (policies keep a scratch
     *  vector across calls on the admit hot path). */
    void waitingBuffers(std::vector<sim::ContextId> &out) const;
    /** The earliest-arrived buffered context — the front of
     *  waitingBuffers() without materializing the vector — or
     *  sim::invalidContext when nothing is buffered.  The admit loops
     *  of arrival-ordered policies run on every command arrival and
     *  kernel completion, so this probe must not allocate. */
    sim::ContextId frontWaitingBuffer() const;
    bool hasBufferedCommand(sim::ContextId ctx) const;
    const gpu::CommandPtr &bufferedCommand(sim::ContextId ctx) const;
    /** @} */

    /** @name Active queue / KSRT
     * @{ */
    bool activeQueueFull() const;
    int numActiveKernels() const;

    /**
     * Admit @p ctx's buffered command: allocate a KSR, append to the
     * active queue, free the command buffer.  Called by the policy.
     * @pre hasBufferedCommand(ctx) and not activeQueueFull().
     */
    gpu::KernelExec *admit(sim::ContextId ctx);

    /**
     * Admit buffered commands earliest-arrived first until the active
     * queue is full or no command waits (the arrival-ordered policies'
     * whole admission step).
     */
    void admitInArrivalOrder();

    /** Active kernels in admission order. */
    const std::vector<gpu::KernelExec *> &activeKernels() const
    {
        return activeQueue_;
    }
    /** @} */

    /** @name SMs
     * @{ */
    int numSms() const { return static_cast<int>(sms_.size()); }
    gpu::Sm *sm(sim::SmId id) { return sms_[static_cast<size_t>(id)].get(); }
    const std::vector<std::unique_ptr<gpu::Sm>> &sms() const { return sms_; }

    /** First idle, unreserved SM; nullptr when none. */
    gpu::Sm *findIdleSm();

    /** Context occupying the engine (any SM with a kernel), or
     *  sim::invalidContext when the engine is empty.  Baseline
     *  policies use this to enforce one-context-at-a-time. */
    sim::ContextId engineContext() const;

    /**
     * Thread blocks of @p k not yet covered by SM capacity already
     * granted to it: issuable TBs minus free slots on its SMs (Setup
     * SMs count at full occupancy).  Policies assign SMs only while
     * this is positive, mirroring the SM driver's "issue until fully
     * occupied" behaviour.
     */
    int unallocatedTbs(const gpu::KernelExec *k) const;

    /** Thread blocks of @p k covered neither by granted SM capacity
     *  nor by the SMs its pending reservations promise (negative when
     *  over-promised).  Preempting policies reserve SMs for a kernel
     *  only while this is positive. */
    int needExtra(const gpu::KernelExec *k) const;
    /** @} */

    /** @name Scheduling operations (policy-facing)
     * @{ */
    /**
     * Set @p sm (idle, unreserved) up for @p k and start issuing its
     * thread blocks after the setup latency.
     */
    void assignSm(gpu::Sm *sm, gpu::KernelExec *k);

    /**
     * Assign idle, unreserved SMs to @p k, lowest id first, until its
     * unallocatedTbs() are covered.  One pass over the SMs: each
     * assignment puts an SM in Setup, which covers exactly
     * occupancy() more blocks.
     * @return false when the idle SMs ran out with @p k still
     *         uncovered, so no later kernel can get one either.
     */
    bool fillIdleSms(gpu::KernelExec *k);

    /**
     * Hand the vacated @p sm to its reservation target @p next while
     * @p next still has uncovered thread blocks.
     * @return false, assigning nothing, when @p next is null (it
     *         finished meanwhile) or already covered.
     */
    bool assignToReservation(gpu::Sm *sm, gpu::KernelExec *next);

    /**
     * Reserve @p sm for @p next, triggering the preemption mechanism.
     * Reserving an already-reserved SM retargets the reservation
     * (Section 3.4 optimisation).
     * @pre sm->busy() and sm->kernel != next
     */
    void reserveSm(gpu::Sm *sm, gpu::KernelExec *next);

    /** Change the kernel a reserved SM is reserved for. */
    void retargetReservation(gpu::Sm *sm, gpu::KernelExec *next);
    /** @} */

    /** @name Driver internals (mechanism-facing)
     * @{ */
    /** Fill @p sm's free slots with thread blocks (preempted first). */
    void issueThreadBlocks(gpu::Sm *sm);

    /**
     * Preemption of @p sm finished: release it from its kernel and
     * hand it to the reservation target via the policy.
     */
    void completePreemption(gpu::Sm *sm);
    /** @} */

    /** @name Statistics queries (harness-facing)
     * @{ */
    std::uint64_t kernelsCompleted() const
    {
        return static_cast<std::uint64_t>(kernelsCompleted_.value());
    }
    std::uint64_t tbsCompleted() const
    {
        return static_cast<std::uint64_t>(tbsCompleted_.value());
    }
    std::uint64_t preemptions() const
    {
        return static_cast<std::uint64_t>(preemptions_.value());
    }
    double contextBytesSaved() const { return ctxBytesSaved_.value(); }
    /** @} */

    /** @name Context-transfer path (mechanism/residency-facing)
     * @{ */
    /**
     * Submit a driver-originated transfer command (context save or
     * restore, residency swap) to the transfer engine: it queues,
     * contends and completes exactly like a workload memcpy, but is
     * bound to no hardware queue.  @p done runs on completion.
     */
    void submitContextTransfer(sim::ContextId ctx, int priority,
                               std::int64_t bytes,
                               gpu::Command::Kind kind,
                               std::function<void()> done);

    /**
     * Stage restore fetches for up to @p max_tbs of @p k's PTBQ
     * entries that are neither credited nor already being fetched.
     * Under the contended-switch model the fetch is an H2D transfer
     * command; otherwise it takes the bandwidth-share move time
     * without contending.  On arrival the entries gain restore credit
     * and every SM running @p k is re-driven.
     * @return the number of TBs actually staged (0 when fully covered).
     */
    int stageRestore(gpu::KernelExec *k, int max_tbs);

    /**
     * A context's device state was evicted (residency swap): every SM
     * with that context loaded forgets it, so the next assignment of
     * the context there pays the context-load cost again.
     */
    void onContextRemapped(sim::ContextId ctx);

    /** True while any SM runs or is reserved for a kernel of @p ctx
     *  (such contexts must not be swapped out). */
    bool contextPinned(sim::ContextId ctx) const;

    /** TBs granted restore credit so far (tests). */
    std::uint64_t tbsPrefetched() const
    {
        return static_cast<std::uint64_t>(tbsPrefetched_.value());
    }
    /** Driver-originated transfer commands submitted (tests). */
    std::uint64_t contextTransfers() const
    {
        return static_cast<std::uint64_t>(ctxTransfers_.value());
    }
    /** @} */

    /** Used by the context-switch mechanism to account saved bytes. */
    void recordContextSave(std::int64_t bytes, int tbs);

    /** Record a kernel's PTBQ depth after a save (sizing analyses). */
    void recordPtbqDepth(std::size_t depth);

    /** Deepest PTBQ observed during the run. */
    double maxPtbqDepth() const { return ptbqDepth_.max(); }

  private:
    /** Charge the setup (and context-load) latency: arm @p sm's timer
     *  for finishSetup.  Runs once the kernel's context is resident. */
    void beginSetup(gpu::Sm *sm);
    void finishSetup(gpu::Sm *sm);
    /** Restore fetch staged with @p gen landed; grants credit and
     *  re-drives the kernel's SMs unless the KernelExec was recycled
     *  meanwhile. */
    void restoreArrived(gpu::KernelExec *k, std::uint64_t gen, int n);
    /** True when @p sm should stay parked on its kernel instead of
     *  going idle: contended-switch restores are in flight and the SM
     *  re-drives when they land. */
    bool parkedForRestore(const gpu::Sm *sm) const;
    void onTbCompleted(gpu::Sm *sm);
    /** (Re)arm @p sm's timer for the head of its timeline; disarms
     *  it when nothing is resident, unless the SM is in Setup (its
     *  timer carries the setup).  The timer carries the head TB's
     *  issue-time sequence number, so firing order is identical to
     *  one-event-per-TB scheduling. */
    void armCompletion(gpu::Sm *sm);
    void smBecameIdle(gpu::Sm *sm);
    void finalizeKernel(gpu::KernelExec *k);
    /** Place one TB (index @p tb_index, running for @p duration) on
     *  @p sm's timeline with a freshly reserved completion sequence. */
    void placeResident(gpu::Sm *sm, gpu::KernelExec *k, int tb_index,
                       sim::SimTime duration);

    sim::Simulation *sim_;
    gpu::GpuParams params_;
    memory::GpuMemory *gmem_;
    gpu::Dispatcher *dispatcher_;
    gpu::TransferEngine *xfer_;
    gpu::CommandPool *pool_;
    memory::ResidencyManager *residency_ = nullptr;
    /** Cached gmem params flag: save/restore rides the transfer
     *  engine.  Checked on the TB-issue hot path. */
    bool contendedSwitch_ = false;
    std::unique_ptr<SchedulingPolicy> policy_;
    std::unique_ptr<PreemptionMechanism> mechanism_;
    /** Engine observers in registration order.  Not owned. */
    std::vector<EngineObserver *> observers_;

    /** Issue preempted TBs before fresh ones (Section 3.3 keeps the
     *  PTBQ bounded this way).  Config "engine.preempted_first";
     *  disabled only by the PTBQ-order ablation bench. */
    bool preemptedFirst_ = true;

    std::vector<std::unique_ptr<gpu::Sm>> sms_;
    /** KSRT: slot -> active kernel (empty slot = nullptr). */
    std::vector<std::unique_ptr<gpu::KernelExec>> ksrt_;
    std::vector<sim::KsrIndex> freeKsrs_;
    /** Retired KernelExec objects recycled by admit(): kernel launch
     *  is per-replay work, and a fresh KernelExec costs an allocation
     *  plus its PTBQ deque's initial node — the recycled object keeps
     *  both. */
    std::vector<std::unique_ptr<gpu::KernelExec>> ksrPool_;
    /** Active queue, admission order. */
    std::vector<gpu::KernelExec *> activeQueue_;
    /**
     * Per-context single-command buffers, flat-indexed by context id
     * (context ids are small and dense — one per process).  Replaced
     * a std::map: the buffer probe runs on every kernel offer, admit
     * and policy decision, so it must be an array load, not a tree
     * walk.  Grown on demand; empty slot = nullptr.
     */
    std::vector<gpu::CommandPtr> buffers_;
    /** Occupied slots of buffers_ (fast emptiness/size probes). */
    std::size_t buffered_ = 0;
    /** Per-SM reservation timestamps (preemption latency stat). */
    std::vector<sim::SimTime> reserveTime_;

    sim::Scalar kernelsCompleted_;
    sim::Scalar tbsCompleted_;
    sim::Scalar tbsRestored_;
    sim::Scalar preemptions_;
    sim::Scalar ctxBytesSaved_;
    sim::Scalar tbsSaved_;
    sim::Scalar tbsPrefetched_;
    sim::Scalar ctxTransfers_;
    sim::Distribution preemptLatencyUs_;
    sim::Distribution kernelQueueTimeUs_;
    sim::Distribution ptbqDepth_;
};

} // namespace core
} // namespace gpump

#endif // GPUMP_CORE_FRAMEWORK_HH
