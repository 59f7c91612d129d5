#include "core/timemux.hh"

#include "core/framework.hh"
#include "sim/logging.hh"

namespace gpump {
namespace core {

TimeMuxPolicy::TimeMuxPolicy(sim::SimTime quantum)
    : quantum_(quantum)
{
    GPUMP_ASSERT(quantum > 0, "non-positive time quantum");
}

void
TimeMuxPolicy::bind(SchedulingFramework &fw)
{
    SchedulingPolicy::bind(fw);
    timer_ = fw.sim().events().addTimer([this] { rotate(); });
}

void
TimeMuxPolicy::onCommandWaiting(sim::ContextId)
{
    fw_->admitInArrivalOrder();
    schedule();
    armTimer();
}

void
TimeMuxPolicy::onSmIdle(gpu::Sm *)
{
    schedule();
}

void
TimeMuxPolicy::onKernelFinished(gpu::KernelExec *)
{
    // Ring positions shift when a kernel leaves the active queue;
    // clamping keeps the ring pointer valid.  If the slice owner
    // itself finished, the next kernel inherits the rest of the slice
    // (it gets the SMs anyway through the idle path).
    fw_->admitInArrivalOrder();
    const auto &active = fw_->activeKernels();
    if (!active.empty())
        ringPos_ %= active.size();
    else
        ringPos_ = 0;
    schedule();
}

void
TimeMuxPolicy::onPreemptionComplete(gpu::Sm *sm, gpu::KernelExec *next)
{
    if (!fw_->assignToReservation(sm, next))
        schedule();
}

gpu::KernelExec *
TimeMuxPolicy::current() const
{
    const auto &active = fw_->activeKernels();
    if (active.empty())
        return nullptr;
    return active[ringPos_ % active.size()];
}

void
TimeMuxPolicy::schedule()
{
    const auto &active = fw_->activeKernels();
    if (active.empty())
        return;
    // Slice owner first, then the others in ring order (back-fill).
    for (std::size_t i = 0; i < active.size(); ++i) {
        if (!fw_->fillIdleSms(active[(ringPos_ + i) % active.size()]))
            return;
    }
}

void
TimeMuxPolicy::armTimer()
{
    if (timer_.armed())
        return;
    if (fw_->numActiveKernels() < 2)
        return; // nothing to multiplex
    sim::EventQueue &events = fw_->sim().events();
    timer_.arm(events.now() + quantum_, sim::prioPolicy,
               events.reserveSeq());
}

void
TimeMuxPolicy::rotate()
{
    const auto &active = fw_->activeKernels();
    if (active.size() < 2) {
        // Lone kernel keeps the engine; re-arm when contention is
        // back (onCommandWaiting).
        return;
    }

    // If the previous rotation is still vacating SMs, extend the
    // slice instead of stacking reservations.
    for (const auto &sm : fw_->sms()) {
        if (sm->reserved) {
            armTimer();
            return;
        }
    }

    gpu::KernelExec *outgoing = current();
    ringPos_ = (ringPos_ + 1) % active.size();
    gpu::KernelExec *incoming = current();
    ++rotations_;

    if (incoming != outgoing) {
        for (const auto &sm : fw_->sms()) {
            if (sm->kernel == outgoing && sm->preemptible())
                fw_->reserveSm(sm.get(), incoming);
        }
    }
    schedule();
    armTimer();
}

// --------------------------------------------------------- registry

PolicyRegistry::Descriptor
timeMuxDescriptor()
{
    PolicyRegistry::Descriptor d;
    d.name = "tmux";
    d.doc = "Round-robin whole-engine time slicing: active kernels "
            "take turns owning the engine for a quantum; idle SMs are "
            "back-filled in ring order";
    d.configPrefix = "tmux";
    d.tunables = {
        {"tmux.quantum_us", TunableType::Double, "200",
         "engine time slice per kernel, microseconds (> 0)"},
    };
    d.factory = [](const sim::Config &cfg) {
        sim::SimTime quantum = cfg.getMicroseconds(
            "tmux.quantum_us", sim::microseconds(200.0));
        if (quantum <= 0)
            sim::fatal("tmux.quantum_us must be positive");
        return std::make_unique<TimeMuxPolicy>(quantum);
    };
    return d;
}

} // namespace core
} // namespace gpump
