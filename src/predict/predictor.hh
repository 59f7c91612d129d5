/**
 * @file
 * Online structural runtime prediction (after Pai et al., "Preemptive
 * Thread Block Scheduling with Online Structural Runtime Prediction";
 * PAPERS.md).
 *
 * The predictor maintains one model per (context, kernel): an EWMA of
 * the observed per-TB service time, seeded with a structural cold-start
 * prior (the kernel's declared per-TB time from its launch profile —
 * metadata a real driver has at launch, unlike the simulator's drawn
 * completion times).  Confidence tracks how much of the EWMA mass
 * comes from observations rather than the prior: after n updates with
 * smoothing factor alpha the prior retains (1-alpha)^n of the weight,
 * so confidence = 1 - (1-alpha)^n.
 *
 * Queries combine the per-TB estimate with *structural* facts — how
 * many blocks are resident and how long each has been executing —
 * never with the scheduled completion times the oracle schemes read.
 * estimatedDrainTimeUs() is the drop-in replacement for
 * AdaptiveMechanism's oracle drain estimate.
 *
 * Determinism: the model is per-System state fed by the deterministic
 * completion stream; lookups never iterate the key map, so pointer
 * keys cannot leak address order into decisions.  Steady state is
 * allocation-free (one map node per (context, kernel), created on
 * first observation).
 */

#ifndef GPUMP_PREDICT_PREDICTOR_HH
#define GPUMP_PREDICT_PREDICTOR_HH

#include <cstdint>
#include <map>
#include <utility>

#include "core/observer.hh"
#include "sim/types.hh"

namespace gpump {
namespace trace {
struct KernelProfile;
}
namespace predict {

/** One per-TB service-time estimate with its provenance. */
struct Estimate
{
    /** Predicted per-TB service time (us). */
    double tbUs = 0.0;
    /** Fraction of the estimate backed by observations (0 = prior
     *  only, asymptotically 1). */
    double confidence = 0.0;
    /** TB completions folded into the estimate. */
    std::uint64_t samples = 0;
};

/** Online per-(context, kernel) runtime model. */
class RuntimePredictor : public core::EngineObserver
{
  public:
    /** @param ewma_alpha EWMA smoothing factor in (0, 1]: the weight
     *         of each new observation. */
    explicit RuntimePredictor(double ewma_alpha = 0.25);

    /** Fold one observed TB service time into the model. */
    void tbCompleted(const gpu::Sm &sm, const gpu::KernelExec &k,
                     sim::SimTime started, sim::SimTime now) override;

    /** The current per-TB estimate for (@p ctx, @p prof); cold keys
     *  answer the declared-profile prior at confidence 0. */
    Estimate tbEstimate(sim::ContextId ctx,
                        const trace::KernelProfile *prof) const;

    /**
     * Predicted time (us) until @p sm would drain: for every resident
     * block, the per-TB estimate minus how long it has been executing
     * (clamped at 0 — an overrunning block predicts "any moment now"),
     * maximised over the blocks.  Uses only issue-side facts
     * (startedAt), never the scheduled endAt.
     * @pre sm runs a kernel with at least one resident block
     */
    double estimatedDrainTimeUs(const gpu::Sm &sm, sim::SimTime now) const;

    /** Total TB observations ingested (tests). */
    std::uint64_t observations() const { return observed_; }

  private:
    struct Model
    {
        double ewmaUs = 0.0;
        /** EWMA mass still attributable to the cold-start prior. */
        double priorWeight = 1.0;
        std::uint64_t samples = 0;
    };

    using Key = std::pair<sim::ContextId, const trace::KernelProfile *>;

    const Model *find(sim::ContextId ctx,
                      const trace::KernelProfile *prof) const;

    double alpha_;
    std::map<Key, Model> models_;
    std::uint64_t observed_ = 0;
};

} // namespace predict
} // namespace gpump

#endif // GPUMP_PREDICT_PREDICTOR_HH
