/**
 * @file
 * The engine observer: the one way to watch the scheduling framework.
 *
 * Kernel-lifecycle, SM-assignment, preemption and completion events
 * are reported to a registration-ordered list of observers
 * (SchedulingFramework::addObserver).  Examples draw timelines from
 * it, tests assert orderings on it, and the measurement-fed
 * schedulers of predict/ (the runtime predictor, the burst estimator,
 * the pred_adaptive drain audit) learn from it.  Every hook defaults
 * to a no-op, so an observer implements only what it needs, and the
 * list is empty in every default assembly.  The list is per-System
 * state, never shared, so observation keeps runs deterministic for
 * any --jobs partitioning.
 *
 * Contract for implementations:
 *  - no re-entrancy: hooks must not call back into scheduling
 *    operations (assignSm / reserveSm / admit) — they observe;
 *  - no allocation in steady state in tbCompleted: it runs per TB
 *    completion, the hottest event in the simulator;
 *  - no oracle reads for predict/ clients: a measurement-fed
 *    observer may inspect issue-side facts (ResidentTb::startedAt,
 *    KernelExec::firstIssuedAt, occupancy, remaining-TB counts) but
 *    must never read ResidentTb::endAt or other scheduled-future
 *    state.
 */

#ifndef GPUMP_CORE_OBSERVER_HH
#define GPUMP_CORE_OBSERVER_HH

#include "sim/types.hh"

namespace gpump {
namespace gpu {
class Sm;
class KernelExec;
} // namespace gpu
namespace core {

/** Observer of engine events; all hooks default to no-ops. */
class EngineObserver
{
  public:
    virtual ~EngineObserver() = default;

    virtual void kernelAdmitted(const gpu::KernelExec &) {}
    /** First thread block of the kernel issued. */
    virtual void kernelStarted(const gpu::KernelExec &) {}
    virtual void smAssigned(const gpu::Sm &, const gpu::KernelExec &) {}
    virtual void preemptionRequested(const gpu::Sm &,
                                     const gpu::KernelExec & /*victim*/,
                                     const gpu::KernelExec & /*next*/) {}
    virtual void preemptionCompleted(const gpu::Sm &) {}

    /**
     * A thread block of @p k completed on @p sm at @p now; it began
     * executing (including any restore prefix) at @p started.  Called
     * after the block left the SM's timeline and before any re-issue,
     * so @p sm reflects the post-completion state (e.g.
     * resident.empty() when this was the last block of a drain).
     */
    virtual void tbCompleted(const gpu::Sm & /*sm*/,
                             const gpu::KernelExec & /*k*/,
                             sim::SimTime /*started*/,
                             sim::SimTime /*now*/) {}

    /**
     * Kernel @p k completed its whole grid at @p now; its first thread
     * block was issued at k.firstIssuedAt.  Runs before the policy's
     * onKernelFinished, so an observing policy decides with this
     * kernel already folded in.  The KernelExec is valid only for the
     * duration of the call (the slot is recycled).
     */
    virtual void kernelFinished(const gpu::KernelExec & /*k*/,
                                sim::SimTime /*now*/) {}
};

} // namespace core
} // namespace gpump

#endif // GPUMP_CORE_OBSERVER_HH
