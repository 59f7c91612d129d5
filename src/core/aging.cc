#include "core/aging.hh"

#include <algorithm>
#include <iterator>

#include "core/framework.hh"
#include "sim/logging.hh"

namespace gpump {
namespace core {

PpqAgingPolicy::PpqAgingPolicy(sim::SimTime interval, int step,
                               int max_boost)
    : PpqPolicy(/*exclusive=*/false), interval_(interval), step_(step),
      maxBoost_(max_boost)
{
    GPUMP_ASSERT(interval > 0, "non-positive aging interval");
    GPUMP_ASSERT(step >= 0 && max_boost >= 0,
                 "negative aging step or boost cap");
}

void
PpqAgingPolicy::bind(SchedulingFramework &fw)
{
    PpqPolicy::bind(fw);
    timer_ = fw.sim().events().addTimer([this] { onTick(); });
}

int
PpqAgingPolicy::waitingBoost(sim::SimTime since) const
{
    std::int64_t steps = (fw_->sim().now() - since) / interval_;
    std::int64_t boost = std::min<std::int64_t>(
        maxBoost_, static_cast<std::int64_t>(step_) * steps);
    return static_cast<int>(boost);
}

int
PpqAgingPolicy::boostOf(const gpu::KernelExec *k) const
{
    auto it = state_.find(k);
    if (it == state_.end())
        return 0;
    return it->second.served ? it->second.frozenBoost
                             : waitingBoost(it->second.waitingSince);
}

int
PpqAgingPolicy::effectivePriority(const gpu::KernelExec *k) const
{
    return k->priority() + boostOf(k);
}

void
PpqAgingPolicy::refreshService()
{
    sim::SimTime now = fw_->sim().now();
    // Track the served/waiting transitions of the active kernels in
    // place (this runs on every policy callback, so no per-call map
    // rebuild).  "Served" means holding an SM; an in-flight
    // reservation keeps the waiting clock (and the growing boost)
    // alive until the SM is actually handed over.
    const auto &active = fw_->activeKernels();
    for (const gpu::KernelExec *k : active) {
        bool served = k->smsHeld > 0;
        auto [it, inserted] = state_.try_emplace(k);
        AgeState &s = it->second;
        if (inserted) {
            s.served = served;
            s.waitingSince = now;
        } else if (served && !s.served) {
            // Turn starts: carry the aged boost through it.
            s.frozenBoost = waitingBoost(s.waitingSince);
            s.served = true;
        } else if (!served && s.served) {
            // Turn over: back to the launch priority, clock restarted.
            s.served = false;
            s.waitingSince = now;
            s.frozenBoost = 0;
        }
    }
    // Finalized kernels are erased in onKernelFinished; sweep any
    // leftover stale pointer so a recycled KernelExec address can
    // never inherit old aging state.
    if (state_.size() > active.size()) {
        for (auto it = state_.begin(); it != state_.end();) {
            bool live = std::find(active.begin(), active.end(),
                                  it->first) != active.end();
            it = live ? std::next(it) : state_.erase(it);
        }
    }
}

void
PpqAgingPolicy::onCommandWaiting(sim::ContextId ctx)
{
    refreshService();
    PpqPolicy::onCommandWaiting(ctx);
    refreshService();
    armTimer();
}

void
PpqAgingPolicy::onSmIdle(gpu::Sm *sm)
{
    refreshService();
    PpqPolicy::onSmIdle(sm);
    refreshService();
    armTimer();
}

void
PpqAgingPolicy::onKernelFinished(gpu::KernelExec *k)
{
    state_.erase(k);
    refreshService();
    PpqPolicy::onKernelFinished(k);
    refreshService();
    armTimer();
}

void
PpqAgingPolicy::onPreemptionComplete(gpu::Sm *sm, gpu::KernelExec *next)
{
    refreshService();
    // Honour the reservation directly (as DSS and tmux do): the
    // beneficiary's aged boost earned this SM, and routing through
    // the priority-sorted scheduler would let the preempted kernel
    // take it straight back once the boost freezes.
    if (!fw_->assignToReservation(sm, next))
        PpqPolicy::onPreemptionComplete(sm, next);
    refreshService();
    armTimer();
}

void
PpqAgingPolicy::armTimer()
{
    if (timer_.armed())
        return;
    // Aging only matters while somebody is waiting unserved.
    bool waiting = false;
    for (const gpu::KernelExec *k : fw_->activeKernels()) {
        if (k->smsHeld + k->smsReserved == 0) {
            waiting = true;
            break;
        }
    }
    if (!waiting)
        return;
    sim::EventQueue &events = fw_->sim().events();
    timer_.arm(events.now() + interval_, sim::prioPolicy,
               events.reserveSeq());
}

void
PpqAgingPolicy::onTick()
{
    ++ticks_;
    // Waiting clocks age by elapsed time, not by this tick; the tick
    // only gives the policy a chance to act on the new effective
    // priorities (admit starved buffers, preempt, schedule).
    refreshService();
    admit();
    preempt();
    scheduleWithMode();
    refreshService();
    armTimer();
}

// --------------------------------------------------------- registry

PolicyRegistry::Descriptor
ppqAgingDescriptor()
{
    PolicyRegistry::Descriptor d;
    d.name = "ppq_aging";
    d.doc = "Preemptive priority queues with priority aging: an "
            "unserved kernel's effective priority rises with waiting "
            "time, bounding low-priority starvation";
    d.configPrefix = "ppq_aging";
    d.tunables = {
        {"ppq_aging.interval_us", TunableType::Double, "500",
         "waiting time per aging step, microseconds (> 0)"},
        {"ppq_aging.step", TunableType::Int, "1",
         "effective-priority boost per elapsed interval (>= 0)"},
        {"ppq_aging.max_boost", TunableType::Int, "1000",
         "cap on the total aging boost (>= 0)"},
    };
    d.factory = [](const sim::Config &cfg) {
        sim::SimTime interval = cfg.getMicroseconds(
            "ppq_aging.interval_us", sim::microseconds(500.0));
        if (interval <= 0)
            sim::fatal("ppq_aging.interval_us must be positive");
        int step = cfg.getInt32("ppq_aging.step", 1);
        int max_boost = cfg.getInt32("ppq_aging.max_boost", 1000);
        if (step < 0 || max_boost < 0)
            sim::fatal("ppq_aging.step and ppq_aging.max_boost must "
                       "be >= 0");
        return std::make_unique<PpqAgingPolicy>(interval, step,
                                                max_boost);
    };
    return d;
}

} // namespace core
} // namespace gpump
