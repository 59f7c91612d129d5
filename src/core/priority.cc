#include "core/priority.hh"

#include <algorithm>

#include "core/framework.hh"
#include "sim/logging.hh"

namespace gpump {
namespace core {

// ---------------------------------------------------------------- NPQ

void
NpqPolicy::onCommandWaiting(sim::ContextId)
{
    admit();
    schedule();
}

void
NpqPolicy::onSmIdle(gpu::Sm *)
{
    schedule();
}

void
NpqPolicy::onKernelFinished(gpu::KernelExec *)
{
    admit();
    schedule();
}

void
NpqPolicy::onPreemptionComplete(gpu::Sm *, gpu::KernelExec *)
{
    sim::panic("NPQ policy received a preemption completion");
}

void
NpqPolicy::admit()
{
    while (!fw_->activeQueueFull()) {
        // waitingScratch_ is reused across calls: admission runs on
        // every command arrival, so the probe must not allocate.
        fw_->waitingBuffers(waitingScratch_);
        if (waitingScratch_.empty())
            break;
        // Highest buffered priority first; FCFS within a level
        // (waitingBuffers is already in arrival order).
        sim::ContextId best = waitingScratch_.front();
        int best_prio = fw_->bufferedCommand(best)->priority;
        for (sim::ContextId ctx : waitingScratch_) {
            int prio = fw_->bufferedCommand(ctx)->priority;
            if (prio > best_prio) {
                best = ctx;
                best_prio = prio;
            }
        }
        fw_->admit(best);
    }
}

std::vector<gpu::KernelExec *>
NpqPolicy::sortedActive() const
{
    // Descending effective priority, ascending arrival within a level.
    std::vector<gpu::KernelExec *> sorted = fw_->activeKernels();
    std::stable_sort(sorted.begin(), sorted.end(),
                     [this](const gpu::KernelExec *a,
                            const gpu::KernelExec *b) {
                         int pa = effectivePriority(a);
                         int pb = effectivePriority(b);
                         if (pa != pb)
                             return pa > pb;
                         return a->seq() < b->seq();
                     });
    return sorted;
}

void
NpqPolicy::schedule()
{
    // One context at a time on the engine: NPQ reorders the execution
    // queue but does not add multi-context support.
    sim::ContextId window = fw_->engineContext();
    for (gpu::KernelExec *k : sortedActive()) {
        if (window != sim::invalidContext && k->ctx() != window)
            continue;
        if (!fw_->fillIdleSms(k))
            return;
        window = fw_->engineContext();
    }
}

// ---------------------------------------------------------------- PPQ

void
PpqPolicy::onCommandWaiting(sim::ContextId)
{
    admit();
    preempt();
    scheduleWithMode();
}

void
PpqPolicy::onKernelFinished(gpu::KernelExec *)
{
    admit();
    preempt();
    scheduleWithMode();
}

void
PpqPolicy::onSmIdle(gpu::Sm *)
{
    scheduleWithMode();
}

void
PpqPolicy::onPreemptionComplete(gpu::Sm *, gpu::KernelExec *)
{
    // The vacated SM is idle; priority-ordered scheduling hands it to
    // the reservation's beneficiary (the top-priority kernel).
    scheduleWithMode();
}

void
PpqPolicy::preempt()
{
    for (;;) {
        // Highest-priority kernel that still needs SM capacity.
        gpu::KernelExec *hp = nullptr;
        for (gpu::KernelExec *k : sortedActive()) {
            if (fw_->needExtra(k) > 0) {
                hp = k;
                break;
            }
        }
        if (!hp)
            return;

        // Victim: the first (lowest-id) SM running a strictly
        // lower-priority kernel.  The hardware has no preview of drain
        // times, so the pick is positional, not latency-aware.
        gpu::Sm *victim = nullptr;
        for (const auto &sm : fw_->sms()) {
            if (sm->preemptible() &&
                effectivePriority(sm->kernel) < effectivePriority(hp)) {
                victim = sm.get();
                break;
            }
        }
        if (!victim)
            return;
        fw_->reserveSm(victim, hp);
    }
}

void
PpqPolicy::scheduleWithMode()
{
    auto sorted = sortedActive();
    if (sorted.empty())
        return;
    // PPQ relies on the multiprogramming extensions: kernels from
    // different contexts may occupy disjoint SM sets concurrently, so
    // no engine-context window applies here.
    int top = effectivePriority(sorted.front());
    for (gpu::KernelExec *k : sorted) {
        if (exclusive_ && effectivePriority(k) < top)
            break; // no back-filling below the top priority level
        if (!fw_->fillIdleSms(k))
            return;
    }
}

// --------------------------------------------------------- registry

namespace {

[[maybe_unused]] const bool registered_priority = [] {
    PolicyRegistry::Descriptor npq;
    npq.name = "npq";
    npq.doc = "Non-preemptive priority queues (Section 4.2): highest "
              "priority admitted and scheduled first, running kernels "
              "never disturbed, one context at a time";
    npq.usesMechanism = false; // never reserves an SM
    npq.factory = [](const sim::Config &) {
        return std::make_unique<NpqPolicy>();
    };
    policyRegistry().add(std::move(npq));

    PolicyRegistry::Descriptor excl;
    excl.name = "ppq_excl";
    excl.doc = "Preemptive priority queues, exclusive mode "
               "(Section 4.3): the top priority level owns the whole "
               "engine; lower priorities wait";
    excl.factory = [](const sim::Config &) {
        return std::make_unique<PpqPolicy>(/*exclusive=*/true);
    };
    policyRegistry().add(std::move(excl));

    PolicyRegistry::Descriptor shared;
    shared.name = "ppq_shared";
    shared.doc = "Preemptive priority queues, shared mode "
                 "(Section 4.3): lower priorities back-fill SMs the "
                 "top level leaves free";
    shared.factory = [](const sim::Config &) {
        return std::make_unique<PpqPolicy>(/*exclusive=*/false);
    };
    policyRegistry().add(std::move(shared));

    return true;
}();

} // namespace

GPUMP_DEFINE_LINK_ANCHOR(PriorityPolicies)

} // namespace core
} // namespace gpump
