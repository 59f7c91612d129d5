#include "predict/predictor.hh"

#include <algorithm>

#include "core/audit.hh"
#include "gpu/kernel_exec.hh"
#include "gpu/sm.hh"
#include "sim/logging.hh"
#include "trace/kernel_profile.hh"

namespace gpump {
namespace predict {

RuntimePredictor::RuntimePredictor(double ewma_alpha)
    : alpha_(ewma_alpha)
{
    GPUMP_ASSERT(ewma_alpha > 0.0 && ewma_alpha <= 1.0,
                 "pred ewma_alpha must be in (0, 1]");
}

const RuntimePredictor::Model *
RuntimePredictor::find(sim::ContextId ctx,
                       const trace::KernelProfile *prof) const
{
    auto it = models_.find(Key{ctx, prof});
    return it == models_.end() ? nullptr : &it->second;
}

void
RuntimePredictor::tbCompleted(const gpu::Sm &, const gpu::KernelExec &k,
                              sim::SimTime started, sim::SimTime now)
{
    GPUMP_ASSERT(now >= started, "TB completion before its issue");
    double service_us = sim::toMicroseconds(now - started);
    Model &m = models_[Key{k.ctx(), &k.profile()}];
    if (m.samples == 0 && m.priorWeight == 1.0)
        m.ewmaUs = k.profile().timePerTbUs; // seed with the prior
    m.ewmaUs = alpha_ * service_us + (1.0 - alpha_) * m.ewmaUs;
    m.priorWeight *= 1.0 - alpha_;
    ++m.samples;
    ++observed_;
    // priorWeight = (1-alpha)^samples by construction; a value outside
    // [0,1] (NaN included, via the negated compare) would push the
    // derived confidence out of range and corrupt every policy that
    // scales on it.
    GPUMP_AUDIT(m.priorWeight >= 0.0 && m.priorWeight <= 1.0,
                "EWMA prior weight %g left [0,1] after %llu samples",
                m.priorWeight,
                static_cast<unsigned long long>(m.samples));
    GPUMP_AUDIT(m.ewmaUs >= 0.0,
                "EWMA service-time estimate went negative (%g us)",
                m.ewmaUs);
}

Estimate
RuntimePredictor::tbEstimate(sim::ContextId ctx,
                             const trace::KernelProfile *prof) const
{
    GPUMP_ASSERT(prof != nullptr, "estimate for null profile");
    Estimate e;
    const Model *m = find(ctx, prof);
    if (m == nullptr) {
        // Cold start: the declared launch profile is all we have.
        e.tbUs = prof->timePerTbUs;
        return e;
    }
    e.tbUs = m->ewmaUs;
    e.confidence = 1.0 - m->priorWeight;
    e.samples = m->samples;
    GPUMP_AUDIT(e.confidence >= 0.0 && e.confidence <= 1.0,
                "prediction confidence %g outside [0,1]", e.confidence);
    return e;
}

double
RuntimePredictor::estimatedDrainTimeUs(const gpu::Sm &sm,
                                       sim::SimTime now) const
{
    GPUMP_ASSERT(sm.kernel != nullptr && !sm.resident.empty(),
                 "drain prediction on an empty SM");
    Estimate est = tbEstimate(sm.kernel->ctx(), &sm.kernel->profile());
    double drain_us = 0.0;
    for (const gpu::ResidentTb &tb : sm.resident) {
        double elapsed_us = sim::toMicroseconds(now - tb.startedAt);
        drain_us =
            std::max(drain_us, std::max(0.0, est.tbUs - elapsed_us));
    }
    return drain_us;
}

} // namespace predict
} // namespace gpump
