/**
 * @file
 * Priority-queue scheduling policies (Section 4.2).
 *
 * NpqPolicy: non-preemptive priority queues.  Kernels are admitted
 * and scheduled highest-priority first, but a running kernel is never
 * disturbed, and the baseline one-context-at-a-time constraint still
 * holds (NPQ is implementable without the multiprogramming
 * extensions).
 *
 * PpqPolicy: preemptive priority queues.  When a kernel of higher
 * priority arrives, SMs running lower-priority kernels are reserved
 * for it and vacated through the preemption mechanism.  Two access
 * modes (Section 4.3):
 *  - exclusive: while any higher-priority kernel is active,
 *    lower-priority kernels are not scheduled even onto free SMs;
 *  - shared: lower-priority kernels back-fill free SMs (and get
 *    preempted again when the high-priority kernel needs them).
 */

#ifndef GPUMP_CORE_PRIORITY_HH
#define GPUMP_CORE_PRIORITY_HH

#include <vector>

#include "core/policy.hh"

namespace gpump {
namespace core {

/** Non-preemptive priority queues. */
class NpqPolicy : public SchedulingPolicy
{
  public:
    void onCommandWaiting(sim::ContextId ctx) override;
    void onSmIdle(gpu::Sm *sm) override;
    void onKernelFinished(gpu::KernelExec *k) override;
    void onPreemptionComplete(gpu::Sm *sm, gpu::KernelExec *next) override;

  protected:
    /** Admit waiting commands, highest (priority, then arrival) first. */
    void admit();

    /**
     * The priority used for every ordering decision.  Defaults to the
     * kernel's launch priority; subclasses may boost it (the aging
     * policy raises it with waiting time to prevent starvation).
     * Must be stable for the duration of one policy callback.
     */
    virtual int effectivePriority(const gpu::KernelExec *k) const
    {
        return k->priority();
    }

    /** Active kernels sorted by descending effectivePriority, then
     *  arrival. */
    std::vector<gpu::KernelExec *> sortedActive() const;

    /** Hand idle SMs to kernels in priority order (non-preemptive). */
    void schedule();

  private:
    /** Reused by admit() so the per-arrival probe never allocates. */
    std::vector<sim::ContextId> waitingScratch_;
};

/** Preemptive priority queues. */
class PpqPolicy : public NpqPolicy
{
  public:
    /** @param exclusive grant the top priority exclusive engine
     *                   access (no low-priority back-filling). */
    explicit PpqPolicy(bool exclusive) : exclusive_(exclusive) {}

    void onCommandWaiting(sim::ContextId ctx) override;
    void onKernelFinished(gpu::KernelExec *k) override;
    void onSmIdle(gpu::Sm *sm) override;
    void onPreemptionComplete(gpu::Sm *sm, gpu::KernelExec *next) override;

  protected:
    /** Reserve lower-priority SMs for higher-priority kernels. */
    void preempt();

    /** Priority-ordered scheduling honouring the access mode. */
    void scheduleWithMode();

  private:
    bool exclusive_;
};

/** Descriptor of the built-in "npq" policy. */
PolicyRegistry::Descriptor npqDescriptor();

/** Descriptor of the built-in "ppq_excl" or "ppq_shared" policy. */
PolicyRegistry::Descriptor ppqDescriptor(bool exclusive);

} // namespace core
} // namespace gpump

#endif // GPUMP_CORE_PRIORITY_HH
