#include "predict/pred_adaptive.hh"

#include "core/adaptive.hh"
#include "core/framework.hh"
#include "sim/logging.hh"

namespace gpump {
namespace predict {

PredAdaptiveMechanism::PredAdaptiveMechanism(double ewma_alpha,
                                             double confidence_min,
                                             double bias)
    : confidenceMin_(confidence_min), bias_(bias), predictor_(ewma_alpha)
{
    GPUMP_ASSERT(confidence_min >= 0.0 && confidence_min <= 1.0,
                 "pred confidence_min outside [0, 1]");
    GPUMP_ASSERT(bias >= 0.0, "negative pred bias");
}

void
PredAdaptiveMechanism::bind(core::SchedulingFramework &fw)
{
    PreemptionMechanism::bind(fw);
    contextSwitch_.bind(fw);
    draining_.bind(fw);
    pending_.assign(static_cast<std::size_t>(fw.params().numSms),
                    PendingDrain());
    // Predictor first: by the time this mechanism audits a completed
    // drain, the model has already folded the completing block in.
    fw.addObserver(&predictor_);
    fw.addObserver(this);
}

void
PredAdaptiveMechanism::beginPreemption(gpu::Sm *sm)
{
    GPUMP_ASSERT(fw_ != nullptr, "mechanism not bound");
    GPUMP_ASSERT(!sm->resident.empty(),
                 "pred_adaptive preemption on SM %d with nothing "
                 "resident",
                 sm->id());

    Estimate est = predictor_.tbEstimate(sm->kernel->ctx(),
                                         &sm->kernel->profile());
    if (est.confidence < confidenceMin_) {
        // Not enough evidence to trust a drain estimate; take the
        // bounded-cost choice.
        ++coldStarts_;
        ++switches_;
        contextSwitch_.beginPreemption(sm);
        return;
    }

    sim::SimTime now = fw_->sim().now();
    double drain_us = predictor_.estimatedDrainTimeUs(*sm, now);
    double save_us = sim::toMicroseconds(
        core::modeledContextSaveCost(*fw_, sm));
    if (drain_us <= bias_ * save_us) {
        ++drains_;
        PendingDrain &p = pending_[static_cast<std::size_t>(sm->id())];
        p.active = true;
        p.predictedUs = drain_us;
        p.decidedAt = now;
        draining_.beginPreemption(sm);
    } else {
        ++switches_;
        contextSwitch_.beginPreemption(sm);
    }
}

void
PredAdaptiveMechanism::tbCompleted(const gpu::Sm &sm,
                                   const gpu::KernelExec &k,
                                   sim::SimTime started, sim::SimTime now)
{
    (void)k;
    (void)started;
    PendingDrain &p = pending_[static_cast<std::size_t>(sm.id())];
    if (!p.active || !sm.resident.empty())
        return;
    // The predicted drain just finished (the observer runs after the
    // block left the timeline, so an empty SM means drain complete).
    p.active = false;
    double actual_us = sim::toMicroseconds(now - p.decidedAt);
    if (actual_us > 2.0 * p.predictedUs + 1.0)
        ++mispredictions_;
}

// --------------------------------------------------------- registry

namespace {

[[maybe_unused]] const bool registered_pred_adaptive = [] {
    core::MechanismRegistry::Descriptor d;
    d.name = "pred_adaptive";
    d.doc = "Adaptive drain-vs-switch from the online runtime "
            "predictor instead of the oracle timeline: per-(context, "
            "kernel) EWMA of observed TB service times, cold-start "
            "prior from the launch profile, context switch while "
            "confidence is below pred.confidence_min";
    d.configPrefix = "pred";
    d.tunables = {
        {"pred.ewma_alpha", core::TunableType::Double, "0.25",
         "EWMA smoothing factor in (0, 1]: weight of each new TB "
         "observation"},
        {"pred.confidence_min", core::TunableType::Double, "0.5",
         "minimum model confidence (1 - (1-alpha)^n) to trust a "
         "drain estimate; below it the mechanism context-switches"},
        {"pred.bias", core::TunableType::Double, "1",
         "drain when predicted drain time <= bias x modeled save "
         "cost; >1 favours draining"},
    };
    d.factory = [](const sim::Config &cfg) {
        double alpha = cfg.getDouble("pred.ewma_alpha", 0.25);
        if (alpha <= 0 || alpha > 1)
            sim::fatal("pred.ewma_alpha must be in (0, 1]");
        double cmin = cfg.getDouble("pred.confidence_min", 0.5);
        if (cmin < 0 || cmin > 1)
            sim::fatal("pred.confidence_min must be in [0, 1]");
        double bias = cfg.getDouble("pred.bias", 1.0);
        if (bias < 0)
            sim::fatal("pred.bias must be >= 0");
        return std::make_unique<PredAdaptiveMechanism>(alpha, cmin,
                                                       bias);
    };
    core::mechanismRegistry().add(std::move(d));
    return true;
}();

} // namespace

} // namespace predict

namespace core {
GPUMP_DEFINE_LINK_ANCHOR(PredAdaptiveMechanism)
} // namespace core

} // namespace gpump
