#include "core/proactive_mem.hh"

#include "core/framework.hh"
#include "sim/logging.hh"

namespace gpump {
namespace core {

ProactiveMemMechanism::ProactiveMemMechanism(int lookahead)
    : lookahead_(lookahead)
{
    GPUMP_ASSERT(lookahead > 0, "non-positive proactive lookahead");
}

void
ProactiveMemMechanism::bind(SchedulingFramework &fw)
{
    if (!fw.contendedSwitch()) {
        sim::fatal("mechanism 'proactive_mem' stages restore fetches as "
                   "transfer commands and needs "
                   "gmem.contended_switch=1");
    }
    PreemptionMechanism::bind(fw);
    contextSwitch_.bind(fw);
}

void
ProactiveMemMechanism::beginPreemption(gpu::Sm *sm)
{
    GPUMP_ASSERT(fw_ != nullptr, "mechanism not bound");

    // The SM is reserved, so the incoming kernel is known right now —
    // stage its preempted blocks' restore fetches before the save
    // starts, so both directions of the switch move concurrently.
    gpu::KernelExec *next = sm->nextKernel;
    int staged = 0;
    if (next != nullptr && next->ptbqDepth() > 0)
        staged = fw_->stageRestore(next, lookahead_);
    if (staged > 0) {
        ++prefetches_;
        tbsStaged_ += static_cast<std::uint64_t>(staged);
    } else {
        ++skips_;
    }

    contextSwitch_.beginPreemption(sm);
}

// --------------------------------------------------------- registry

MechanismRegistry::Descriptor
proactiveMemDescriptor()
{
    MechanismRegistry::Descriptor d;
    d.name = "proactive_mem";
    d.doc = "Context switch with restore prefetch: stages the "
            "reservation target's preempted-block state over the "
            "transfer path while the victim drains and saves, so "
            "re-issued blocks skip the inline restore";
    d.configPrefix = "proactive_mem";
    d.tunables = {
        {"proactive_mem.lookahead", TunableType::Int, "16",
         "max preempted TBs whose restore is staged per preemption; "
         "must be > 0"},
    };
    d.factory = [](const sim::Config &cfg) {
        int lookahead = cfg.getInt32("proactive_mem.lookahead", 16);
        if (lookahead <= 0)
            sim::fatal("proactive_mem.lookahead must be > 0");
        return std::make_unique<ProactiveMemMechanism>(lookahead);
    };
    return d;
}

} // namespace core
} // namespace gpump
