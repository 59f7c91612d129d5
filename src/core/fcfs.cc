#include "core/fcfs.hh"

#include "core/framework.hh"
#include "sim/logging.hh"

namespace gpump {
namespace core {

void
FcfsPolicy::onCommandWaiting(sim::ContextId)
{
    fw_->admitInArrivalOrder();
    schedule();
}

void
FcfsPolicy::onSmIdle(gpu::Sm *)
{
    schedule();
}

void
FcfsPolicy::onKernelFinished(gpu::KernelExec *)
{
    fw_->admitInArrivalOrder();
    schedule();
}

void
FcfsPolicy::onPreemptionComplete(gpu::Sm *, gpu::KernelExec *)
{
    // FCFS never reserves an SM; nothing can complete.
    sim::panic("FCFS policy received a preemption completion");
}

namespace {

[[maybe_unused]] const bool registered_fcfs = [] {
    PolicyRegistry::Descriptor d;
    d.name = "fcfs";
    d.doc = "Baseline GPU: kernels run in arrival order, one context "
            "at a time on the engine, back-to-back within a context "
            "(Section 2.3)";
    d.usesMechanism = false; // never reserves an SM
    d.factory = [](const sim::Config &) {
        return std::make_unique<FcfsPolicy>();
    };
    policyRegistry().add(std::move(d));
    return true;
}();

} // namespace

GPUMP_DEFINE_LINK_ANCHOR(FcfsPolicy)

void
FcfsPolicy::schedule()
{
    const auto &active = fw_->activeKernels();
    if (active.empty())
        return;

    // Strict arrival order with head-of-line blocking across
    // contexts: the schedulable window is the leading run of kernels
    // that share the front kernel's context, and it only opens once
    // the engine holds no other context.
    sim::ContextId window_ctx = active.front()->ctx();
    sim::ContextId engine_ctx = fw_->engineContext();
    if (engine_ctx != sim::invalidContext && engine_ctx != window_ctx)
        return;

    for (gpu::KernelExec *k : active) {
        if (k->ctx() != window_ctx || !fw_->fillIdleSms(k))
            break;
    }
}

} // namespace core
} // namespace gpump
