/**
 * @file
 * Preemptive priority queues with priority aging ("ppq_aging").
 *
 * Plain PPQ starves low-priority processes: in exclusive mode they
 * never run while higher-priority work exists, and even in shared
 * mode they are preempted back off the SMs as soon as the
 * high-priority kernel wants capacity.  Priority-driven preemptive
 * GPU scheduling proposals (e.g. GCAPS) bound that starvation by
 * *aging*: a kernel's effective priority rises the longer it goes
 * unserved, until it out-ranks the running work and the normal PPQ
 * preemption path schedules it.
 *
 * Model here: a kernel is "served" while it holds at least one SM.
 * While unserved its effective priority is its launch priority plus
 * step x floor(waiting / interval), capped at max_boost; the waiting
 * clock keeps running through an in-flight reservation (the kernel
 * is still not executing).  When service begins, the boost it aged
 * up to is *frozen* for the duration of the turn — so the kernel it
 * just out-ranked cannot immediately preempt it back — and when the
 * turn ends (it loses its last SM) the clock and boost reset to the
 * launch priority.  Every waiting kernel therefore gets a bounded
 * turn instead of inverting the priority order permanently.
 *
 * A policy timer, added to the event queue in bind(), re-evaluates
 * every interval while some kernel waits, so aging makes progress
 * even when no scheduling event would otherwise fire (a fully busy
 * engine generates no SM-idle callbacks).
 */

#ifndef GPUMP_CORE_AGING_HH
#define GPUMP_CORE_AGING_HH

#include <map>

#include "core/priority.hh"
#include "sim/event.hh"

namespace gpump {
namespace core {

/** Shared-mode PPQ with starvation-bounding priority aging. */
class PpqAgingPolicy : public PpqPolicy
{
  public:
    /**
     * @param interval  waiting time per aging step (> 0).
     * @param step      effective-priority boost per elapsed interval.
     * @param max_boost cap on the total boost (>= 0).
     */
    PpqAgingPolicy(sim::SimTime interval, int step, int max_boost);

    const char *name() const override { return "ppq_aging"; }

    /** Also adds the aging timer to the framework's event queue. */
    void bind(SchedulingFramework &fw) override;

    void onCommandWaiting(sim::ContextId ctx) override;
    void onSmIdle(gpu::Sm *sm) override;
    void onKernelFinished(gpu::KernelExec *k) override;
    void onPreemptionComplete(gpu::Sm *sm, gpu::KernelExec *next) override;

    /** Aging ticks fired (for tests). */
    std::uint64_t ticks() const { return ticks_; }

    /** The boost @p k currently enjoys: the live waiting boost while
     *  unserved, the frozen turn boost while served. */
    int boostOf(const gpu::KernelExec *k) const;

  protected:
    int effectivePriority(const gpu::KernelExec *k) const override;

  private:
    /** Per-kernel aging state. */
    struct AgeState
    {
        /** Holding at least one SM right now. */
        bool served = false;
        /** Start of the current waiting stretch (meaningful while
         *  not served). */
        sim::SimTime waitingSince = 0;
        /** Boost carried through the current service turn. */
        int frozenBoost = 0;
    };

    /** Boost a kernel waiting since @p since has aged up to. */
    int waitingBoost(sim::SimTime since) const;

    /** Detect served/waiting transitions (freeze or reset boosts)
     *  and prune kernels that left the tables. */
    void refreshService();

    /** Arm the aging timer, unless armed, while any active kernel is
     *  waiting. */
    void armTimer();
    void onTick();

    sim::SimTime interval_;
    int step_;
    int maxBoost_;
    std::map<const gpu::KernelExec *, AgeState> state_;
    /** Fires onTick() an interval after it was armed. */
    sim::EventQueue::Timer timer_;
    std::uint64_t ticks_ = 0;
};

/** Descriptor of the built-in "ppq_aging" policy. */
PolicyRegistry::Descriptor ppqAgingDescriptor();

} // namespace core
} // namespace gpump

#endif // GPUMP_CORE_AGING_HH
