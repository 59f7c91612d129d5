#include "core/context_switch.hh"

#include <algorithm>
#include <vector>

#include "core/framework.hh"
#include "sim/logging.hh"

namespace gpump {
namespace core {

void
ContextSwitchMechanism::beginPreemption(gpu::Sm *sm)
{
    GPUMP_ASSERT(fw_ != nullptr, "mechanism not bound");
    GPUMP_ASSERT(!sm->resident.empty(),
                 "context switch on SM %d with nothing resident",
                 sm->id());

    gpu::KernelExec *k = sm->kernel;
    sm->state = gpu::Sm::State::Saving;

    // Halt every resident thread block: disarm the SM's timer (one
    // completion covers them all) and capture how much execution each
    // block still needs.  The blocks reach the PTBQ
    // only once the save finishes, so they cannot be re-issued while
    // their context is still in flight.  The timeline keeps residents
    // in completion order; the trap routine stores (and the PTBQ
    // receives) them in issue order, so re-sort by issue sequence.
    sm->timer.disarm();
    std::vector<gpu::ResidentTb> halted(sm->resident.begin(),
                                        sm->resident.end());
    std::sort(halted.begin(), halted.end(),
              [](const gpu::ResidentTb &a, const gpu::ResidentTb &b) {
                  return a.seq < b.seq;
              });
    std::vector<gpu::PreemptedTb> saved;
    saved.reserve(halted.size());
    for (const auto &tb : halted) {
        sim::SimTime remaining = tb.endAt - fw_->sim().now();
        GPUMP_ASSERT(remaining >= 0, "resident TB already past its end");
        saved.push_back(gpu::PreemptedTb{tb.tbIndex, remaining});
        k->tbEnded(false);
    }
    sm->resident.clear();

    // The trap routine drains the pipeline (precise exceptions), then
    // every thread collaboratively stores registers and the shared
    // memory partition.
    std::int64_t bytes = k->contextBytesPerTb() *
        static_cast<std::int64_t>(saved.size());
    fw_->recordContextSave(bytes, static_cast<int>(saved.size()));

    if (fw_->contendedSwitch()) {
        // Contended-switch model: after the drain the context bytes
        // travel as a D2H transfer command, queueing behind (and
        // delaying) workload copies instead of taking a fixed
        // bandwidth share.
        fw_->sim().events().scheduleIn(
            fw_->params().pipelineDrainLatency,
            [this, sm, k, bytes, saved = std::move(saved)] {
                fw_->submitContextTransfer(
                    k->ctx(), k->priority(), bytes,
                    gpu::Command::Kind::MemcpyD2H,
                    [this, sm, k, saved] { finishSave(sm, k, saved); });
            },
            sim::prioCompletion);
        return;
    }

    // Share model (the default Section 3.2 cost): the store runs at
    // the SM's share of memory bandwidth, overlapping everything.
    sim::SimTime save_time =
        fw_->gmem().moveTime(bytes, fw_->params().numSms);
    fw_->sim().events().scheduleIn(
        fw_->params().pipelineDrainLatency + save_time,
        [this, sm, k, saved = std::move(saved)] {
            finishSave(sm, k, saved);
        },
        sim::prioCompletion);
}

void
ContextSwitchMechanism::finishSave(gpu::Sm *sm, gpu::KernelExec *k,
                                   const std::vector<gpu::PreemptedTb> &saved)
{
    for (const auto &pt : saved)
        k->pushPreemptedTb(pt);
    fw_->recordPtbqDepth(k->ptbqDepth());
    fw_->completePreemption(sm);
}

// --------------------------------------------------------- registry

MechanismRegistry::Descriptor
contextSwitchDescriptor()
{
    MechanismRegistry::Descriptor d;
    d.name = "context_switch";
    d.doc = "Save/restore preemption (Section 3.2): drain the "
            "pipeline, save every resident thread block's context to "
            "off-chip memory at the SM's bandwidth share, re-issue "
            "from the PTBQ later";
    d.factory = [](const sim::Config &) {
        return std::make_unique<ContextSwitchMechanism>();
    };
    return d;
}

} // namespace core
} // namespace gpump
