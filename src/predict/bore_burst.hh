/**
 * @file
 * bore_burst: preemptive priority queues with BORE-style burstiness
 * demotion.
 *
 * PPQ orders kernels by their static launch priority, so a batch
 * process that launches long kernels at the same priority as an
 * interactive one gets equal treatment while hurting the
 * interactive process's latency far more than the reverse.  BORE's
 * answer on CPUs is to *measure* burstiness and fold it into the
 * effective priority; this policy transplants that onto PPQ: each
 * context's observed kernel service times feed a BurstEstimator
 * (predict/burst.hh), and the resulting burst score — a log2 bucket
 * of the smoothed burst length, decaying while the context is idle —
 * is subtracted from the launch priority through the
 * NpqPolicy::effectivePriority hook.  Long-burst contexts sink,
 * short-burst contexts keep their rank, and a context that stops
 * bursting earns its priority back after a few decay intervals.
 *
 * Entirely measurement-fed (the estimator is an engine observer,
 * like the runtime predictor): no oracle reads, deterministic, and
 * default-off — a system that never selects "bore_burst" never
 * registers the observer.
 *
 * Runs on shared-mode PPQ.  Registers as "bore_burst" with tunables
 * bore.smoothness, bore.max_offset and bore.decay_us.
 */

#ifndef GPUMP_PREDICT_BORE_BURST_HH
#define GPUMP_PREDICT_BORE_BURST_HH

#include "core/priority.hh"
#include "predict/burst.hh"

namespace gpump {
namespace predict {

/** Shared-mode PPQ with burst-score priority demotion. */
class BoreBurstPolicy : public core::PpqPolicy
{
  public:
    /**
     * @param smoothness EWMA shift of the burst average, in [0, 62]
     * @param max_offset cap on the priority demotion (>= 0)
     * @param decay_us   idle time per bucket of score decay (> 0)
     */
    BoreBurstPolicy(int smoothness, int max_offset, double decay_us);

    /** Registers the burst estimator as an engine observer. */
    void bind(core::SchedulingFramework &fw) override;

    /** The burst model behind the demotion (tests, analyses). */
    const BurstEstimator &burst() const { return burst_; }

    /** The demotion currently applied to @p k's context. */
    int penaltyOf(const gpu::KernelExec *k) const;

  protected:
    /** Launch priority minus the context's burst score. */
    int effectivePriority(const gpu::KernelExec *k) const override;

  private:
    BurstEstimator burst_;
};

/** Descriptor of the built-in "bore_burst" policy. */
core::PolicyRegistry::Descriptor boreBurstDescriptor();

} // namespace predict
} // namespace gpump

#endif // GPUMP_PREDICT_BORE_BURST_HH
