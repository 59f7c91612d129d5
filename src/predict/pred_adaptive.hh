/**
 * @file
 * pred_adaptive: the adaptive drain-vs-switch mechanism rebuilt on
 * measurements instead of the oracle.
 *
 * AdaptiveMechanism (core/adaptive.hh) estimates drain time by reading
 * the resident blocks' *scheduled* completion times — simulator state
 * no real driver has.  PredAdaptiveMechanism makes the same per-SM
 * decision from the RuntimePredictor's online model: the per-(context,
 * kernel) EWMA of observed TB service times, combined with how long
 * each resident block has been executing.  The save-cost side of the
 * comparison is the same modeledContextSaveCost() the oracle scheme
 * uses (it is a model either way, and queue-aware under
 * gmem.contended_switch).
 *
 * Cold start: while the model's confidence for the victim kernel is
 * below pred.confidence_min, the mechanism context-switches — the
 * bounded-cost choice — rather than trusting a prior-only drain
 * estimate, and counts the event.  Warm decisions record the predicted
 * drain time; when the drain completes, the actual time is compared
 * against it and gross misses (actual > 2x predicted + 1us slack)
 * increment the misprediction counter, so the prediction-to-oracle gap
 * is observable per run, not just in aggregate benchmarks.
 *
 * Registers as "pred_adaptive" with tunables pred.ewma_alpha,
 * pred.confidence_min and pred.bias.
 */

#ifndef GPUMP_PREDICT_PRED_ADAPTIVE_HH
#define GPUMP_PREDICT_PRED_ADAPTIVE_HH

#include <cstdint>
#include <vector>

#include "core/context_switch.hh"
#include "core/draining.hh"
#include "predict/predictor.hh"

namespace gpump {
namespace predict {

/** Measurement-driven per-SM drain-vs-switch selection. */
class PredAdaptiveMechanism : public core::PreemptionMechanism,
                              public core::EngineObserver
{
  public:
    /**
     * @param ewma_alpha     predictor smoothing factor in (0, 1]
     * @param confidence_min minimum model confidence to trust a drain
     *        estimate; below it the mechanism context-switches
     * @param bias           drain when predicted drain time <= bias x
     *        modeled save cost; must be >= 0
     */
    explicit PredAdaptiveMechanism(double ewma_alpha = 0.25,
                                   double confidence_min = 0.5,
                                   double bias = 1.0);

    const char *name() const override { return "pred_adaptive"; }

    /** Binds the base mechanisms and registers the predictor and this
     *  mechanism as engine observers. */
    void bind(core::SchedulingFramework &fw) override;

    void beginPreemption(gpu::Sm *sm) override;

    /** Closes the drain-prediction audit when a predicted drain's SM
     *  empties. */
    void tbCompleted(const gpu::Sm &sm, const gpu::KernelExec &k,
                     sim::SimTime started, sim::SimTime now) override;

    double bias() const { return bias_; }

    /** The online model feeding the decisions (tests, analyses). */
    const RuntimePredictor &predictor() const { return predictor_; }

    /** @name Decision counters (tests, analyses)
     * @{ */
    std::uint64_t drainsChosen() const { return drains_; }
    std::uint64_t switchesChosen() const { return switches_; }
    /** Switches forced by confidence below pred.confidence_min
     *  (subset of switchesChosen). */
    std::uint64_t coldStarts() const { return coldStarts_; }
    /** Completed drains whose actual time exceeded twice the
     *  prediction (plus 1us slack). */
    std::uint64_t mispredictions() const { return mispredictions_; }
    /** @} */

  private:
    /** Audit record of one in-flight predicted drain. */
    struct PendingDrain
    {
        bool active = false;
        double predictedUs = 0.0;
        sim::SimTime decidedAt = 0;
    };

    double confidenceMin_;
    double bias_;
    RuntimePredictor predictor_;
    core::ContextSwitchMechanism contextSwitch_;
    core::DrainingMechanism draining_;
    std::vector<PendingDrain> pending_; // indexed by SM id
    std::uint64_t drains_ = 0;
    std::uint64_t switches_ = 0;
    std::uint64_t coldStarts_ = 0;
    std::uint64_t mispredictions_ = 0;
};

} // namespace predict
} // namespace gpump

#endif // GPUMP_PREDICT_PRED_ADAPTIVE_HH
