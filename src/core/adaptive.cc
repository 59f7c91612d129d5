#include "core/adaptive.hh"

#include "core/framework.hh"
#include "gpu/transfer_engine.hh"
#include "sim/logging.hh"

namespace gpump {
namespace core {

sim::SimTime
modeledContextSaveCost(SchedulingFramework &fw, const gpu::Sm *sm)
{
    GPUMP_ASSERT(sm->kernel != nullptr, "save estimate on idle SM");
    std::int64_t bytes = sm->kernel->contextBytesPerTb() *
        static_cast<std::int64_t>(sm->resident.size());
    if (fw.contendedSwitch()) {
        // The save is a D2H command on the transfer engine: it queues
        // behind every transfer already submitted, so the backlog is
        // part of the cost.  Ignoring it understated the save exactly
        // when the engine was busy — the case the contended model
        // exists for.
        const gpu::TransferEngine &xfer = fw.transferEngine();
        return fw.params().pipelineDrainLatency + xfer.modeledBacklog() +
            xfer.bus().transferDuration(bytes);
    }
    return fw.params().pipelineDrainLatency +
        fw.gmem().moveTime(bytes, fw.params().numSms);
}

AdaptiveMechanism::AdaptiveMechanism(double bias)
    : bias_(bias)
{
    GPUMP_ASSERT(bias >= 0.0, "negative adaptive bias");
}

void
AdaptiveMechanism::bind(SchedulingFramework &fw)
{
    PreemptionMechanism::bind(fw);
    contextSwitch_.bind(fw);
    draining_.bind(fw);
}

sim::SimTime
AdaptiveMechanism::estimatedDrainTime(const gpu::Sm *sm) const
{
    GPUMP_ASSERT(!sm->resident.empty(),
                 "drain estimate on an empty SM");
    // resident is kept ordered by (endAt, seq): the back entry is the
    // last block to finish, which is when draining would complete.
    return sm->resident.back().endAt - fw_->sim().now();
}

sim::SimTime
AdaptiveMechanism::modeledSaveCost(const gpu::Sm *sm) const
{
    return modeledContextSaveCost(*fw_, sm);
}

void
AdaptiveMechanism::beginPreemption(gpu::Sm *sm)
{
    GPUMP_ASSERT(fw_ != nullptr, "mechanism not bound");
    GPUMP_ASSERT(!sm->resident.empty(),
                 "adaptive preemption on SM %d with nothing resident",
                 sm->id());

    double drain_est = static_cast<double>(estimatedDrainTime(sm));
    double save_est = static_cast<double>(modeledSaveCost(sm));
    if (drain_est <= bias_ * save_est) {
        ++drains_;
        draining_.beginPreemption(sm);
    } else {
        ++switches_;
        contextSwitch_.beginPreemption(sm);
    }
}

// --------------------------------------------------------- registry

MechanismRegistry::Descriptor
adaptiveDescriptor()
{
    MechanismRegistry::Descriptor d;
    d.name = "adaptive";
    d.doc = "Per-SM drain-vs-switch selection: drains when the "
            "resident blocks' estimated remaining time is below the "
            "modeled context-save cost, context-switches otherwise "
            "(the Figures 6-7 tradeoff, played per preemption)";
    d.configPrefix = "adaptive";
    d.tunables = {
        {"adaptive.bias", TunableType::Double, "1",
         "drain when estimated drain time <= bias x modeled save "
         "cost; >1 favours draining, 0 context-switches unless the "
         "SM is already at a block boundary (zero drain estimate)"},
    };
    d.factory = [](const sim::Config &cfg) {
        double bias = cfg.getDouble("adaptive.bias", 1.0);
        if (bias < 0)
            sim::fatal("adaptive.bias must be >= 0");
        return std::make_unique<AdaptiveMechanism>(bias);
    };
    return d;
}

} // namespace core
} // namespace gpump
