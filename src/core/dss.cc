#include "core/dss.hh"

#include "core/framework.hh"
#include "sim/logging.hh"

namespace gpump {
namespace core {

DssPolicy::DssPolicy(int tokens_per_kernel, int bonus_tokens,
                     bool retarget)
    : tokensPerKernel_(tokens_per_kernel), bonusPool_(bonus_tokens),
      retarget_(retarget)
{
    GPUMP_ASSERT(tokens_per_kernel >= 0 && bonus_tokens >= 0,
                 "negative DSS token budget");
}

void
DssPolicy::onCommandWaiting(sim::ContextId)
{
    admit();
    partition();
}

void
DssPolicy::onSmIdle(gpu::Sm *)
{
    partition();
}

void
DssPolicy::onKernelFinished(gpu::KernelExec *k)
{
    if (k->hasBonusToken)
        ++bonusPool_; // the remainder token returns to the pool
    admit();
    partition();
}

void
DssPolicy::onPreemptionComplete(gpu::Sm *sm, gpu::KernelExec *next)
{
    // The token for this SM was paid when the reservation was made.
    if (fw_->assignToReservation(sm, next))
        return;
    // The beneficiary finished or no longer has work: refund the
    // paid token (unless the kernel is gone) and repartition.
    if (next != nullptr)
        ++next->tokens;
    partition();
}

void
DssPolicy::admit()
{
    while (!fw_->activeQueueFull()) {
        sim::ContextId ctx = fw_->frontWaitingBuffer();
        if (ctx == sim::invalidContext)
            break;
        gpu::KernelExec *k = fw_->admit(ctx);
        k->tokens = tokensPerKernel_;
        if (bonusPool_ > 0) {
            --bonusPool_;
            ++k->tokens;
            k->hasBonusToken = true;
        }
    }
}

gpu::KernelExec *
DssPolicy::findMax() const
{
    gpu::KernelExec *best = nullptr;
    for (gpu::KernelExec *k : fw_->activeKernels()) {
        if (fw_->needExtra(k) <= 0)
            continue;
        if (!best || k->tokens > best->tokens)
            best = k; // admission order breaks ties
    }
    return best;
}

gpu::KernelExec *
DssPolicy::findMin() const
{
    gpu::KernelExec *best = nullptr;
    for (gpu::KernelExec *k : fw_->activeKernels()) {
        if (pickVictim(k) == nullptr)
            continue;
        if (!best || k->tokens < best->tokens ||
            (k->tokens == best->tokens && k->smsHeld > best->smsHeld)) {
            best = k;
        }
    }
    return best;
}

gpu::Sm *
DssPolicy::pickVictim(gpu::KernelExec *k) const
{
    // "One of its assigned SMs" (Section 3.4): the pick is positional
    // (lowest id); the hardware has no preview of drain times.
    for (const auto &sm : fw_->sms()) {
        if (sm->kernel == k && sm->preemptible())
            return sm.get();
    }
    return nullptr;
}

void
DssPolicy::partition()
{
    // Reservations of Setup SMs complete synchronously and re-enter
    // the policy; flatten the recursion into a retry loop.
    if (inPartition_) {
        partitionAgain_ = true;
        return;
    }
    inPartition_ = true;
    do {
        partitionAgain_ = false;
        partitionLoop();
    } while (partitionAgain_);
    inPartition_ = false;
}

void
DssPolicy::retargetOrphans()
{
    for (const auto &sm : fw_->sms()) {
        if (!sm->reserved)
            continue;
        gpu::KernelExec *next = sm->nextKernel;
        if (next != nullptr && fw_->unallocatedTbs(next) > 0)
            continue; // reservation is still useful
        gpu::KernelExec *max_k = findMax();
        if (!max_k || max_k == sm->kernel)
            continue;
        if (next != nullptr)
            ++next->tokens; // refund the saturated beneficiary
        --max_k->tokens;
        fw_->retargetReservation(sm.get(), max_k);
    }
}

void
DssPolicy::partitionLoop()
{
    if (retarget_)
        retargetOrphans();

    for (;;) {
        gpu::KernelExec *max_k = findMax();
        if (!max_k)
            return; // nobody can use more SMs

        gpu::Sm *idle = fw_->findIdleSm();
        if (idle != nullptr) {
            // Idle SMs are never wasted: the richest kernel takes
            // them even if that drives it into debt (Section 3.4).
            --max_k->tokens;
            fw_->assignSm(idle, max_k);
            continue;
        }

        gpu::KernelExec *min_k = findMin();
        if (!min_k || min_k == max_k)
            return;
        // Steady state: stop when the spread is at most one token
        // (prevents repartitioning livelock, Section 3.4).
        if (max_k->tokens <= min_k->tokens + 1)
            return;

        gpu::Sm *victim = pickVictim(min_k);
        GPUMP_ASSERT(victim != nullptr, "findMin returned kernel "
                     "without preemptible SMs");
        // Token transfer happens at reservation time (Algorithm 1).
        ++min_k->tokens;
        --max_k->tokens;
        fw_->reserveSm(victim, max_k);
    }
}

// --------------------------------------------------------- registry

PolicyRegistry::Descriptor
dssDescriptor()
{
    PolicyRegistry::Descriptor d;
    d.name = "dss";
    d.doc = "Dynamic Spatial Sharing (Section 3.4, Algorithm 1): "
            "token-based SM partitioning with debt, rebalanced by "
            "preempting the token-poorest kernel";
    d.configPrefix = "dss";
    d.tunables = {
        {"dss.tokens_per_kernel", TunableType::Int, "",
         "SM budget granted per kernel on admission; default "
         "floor(NSMs/Nprocs), the paper's equal share"},
        {"dss.bonus_tokens", TunableType::Int, "",
         "remainder tokens r = NSMs mod Nprocs, granted one each to "
         "the first r admitted kernels; defaults to the remainder "
         "when dss.tokens_per_kernel also defaults, else 0"},
        {"dss.retarget", TunableType::Bool, "true",
         "re-target in-flight reservations whose beneficiary no "
         "longer needs the SM (Section 3.4 optimisation)"},
    };
    // Equal sharing (Section 4.4) needs the machine and workload
    // sizes, which only exist at system assembly.  The pair default
    // applies only while the token budget itself defaults — the
    // remainder is meaningless next to a caller-chosen budget — and
    // an explicitly set bonus is never overwritten.
    d.assemblyDefaults = [](sim::Config &cfg, int num_sms,
                            int num_processes) {
        if (num_processes > 0 && !cfg.has("dss.tokens_per_kernel")) {
            cfg.set("dss.tokens_per_kernel",
                    static_cast<std::int64_t>(num_sms / num_processes));
            if (!cfg.has("dss.bonus_tokens")) {
                cfg.set("dss.bonus_tokens",
                        static_cast<std::int64_t>(num_sms %
                                                  num_processes));
            }
        }
    };
    d.factory = [](const sim::Config &cfg) {
        int tokens = cfg.getInt32("dss.tokens_per_kernel", 1);
        int bonus = cfg.getInt32("dss.bonus_tokens", 0);
        bool retarget = cfg.getBool("dss.retarget", true);
        return std::make_unique<DssPolicy>(tokens, bonus, retarget);
    };
    return d;
}

} // namespace core
} // namespace gpump
