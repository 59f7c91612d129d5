#include "memory/residency.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace gpump {
namespace memory {

ResidencyManager::ResidencyManager(sim::StatRegistry &stats,
                                   GpuMemory &gmem, SwapSubmit submit)
    : gmem_(&gmem), submit_(std::move(submit)),
      swapIns_(stats, "residency.swap_ins",
               "contexts swapped into device memory"),
      swapOuts_(stats, "residency.swap_outs",
                "contexts evicted from device memory"),
      swapBytes_(stats, "residency.swap_bytes",
                 "bytes moved by residency swaps (both directions)")
{
    GPUMP_ASSERT(submit_ != nullptr, "residency without a swap path");
}

void
ResidencyManager::setPinQuery(std::function<bool(sim::ContextId)> fn)
{
    pinned_ = std::move(fn);
}

void
ResidencyManager::setRemapNotifier(std::function<void(sim::ContextId)> fn)
{
    remapNotify_ = std::move(fn);
}

ResidencyManager::CtxInfo &
ResidencyManager::info(sim::ContextId ctx)
{
    auto it = ctxs_.find(ctx);
    GPUMP_ASSERT(it != ctxs_.end(), "unregistered context %d", ctx);
    return it->second;
}

void
ResidencyManager::registerContext(sim::ContextId ctx, int priority,
                                  std::int64_t footprint)
{
    GPUMP_ASSERT(footprint >= 0, "negative footprint");
    GPUMP_ASSERT(ctxs_.find(ctx) == ctxs_.end(),
                 "context %d registered twice", ctx);
    if (footprint > gmem_->params().capacity) {
        sim::fatal("context %d footprint %lld exceeds device capacity "
                   "%lld on its own; no co-residency can make it fit",
                   ctx, static_cast<long long>(footprint),
                   static_cast<long long>(gmem_->params().capacity));
    }

    CtxInfo c;
    c.priority = priority;
    c.footprint = footprint;
    c.lastUse = ++useClock_;

    // Admission: take residency immediately when the footprint fits
    // alongside the contexts already admitted (the common,
    // non-oversubscribed case behaves exactly as before); otherwise
    // start swapped out and pay the swap-in when first scheduled.
    if (footprint <= gmem_->params().capacity - gmem_->totalAllocated()) {
        gmem_->allocate(ctx, footprint);
        c.state = State::Resident;
    } else {
        c.state = State::SwappedOut;
    }
    ctxs_.emplace(ctx, std::move(c));
#if GPUMP_AUDIT_ENABLED
    auditCapacity();
#endif
}

#if GPUMP_AUDIT_ENABLED

void
ResidencyManager::auditCapacity() const
{
    std::int64_t covered = 0;
    for (const auto &kv : ctxs_) {
        GPUMP_AUDIT(kv.second.footprint >= 0,
                    "context %d carries a negative footprint", kv.first);
        if (kv.second.state != State::SwappedOut)
            covered += kv.second.footprint;
    }
    // The modelled device cannot demand-page: state that does not fit
    // does not exist, so more covered footprint than capacity means
    // the simulation is now timing accesses to memory that was never
    // there.
    GPUMP_AUDIT(covered <= gmem_->params().capacity,
                "resident + swapping-in footprint %lld exceeds device "
                "capacity %lld",
                static_cast<long long>(covered),
                static_cast<long long>(gmem_->params().capacity));
    GPUMP_AUDIT(gmem_->totalAllocated() <= gmem_->params().capacity,
                "GpuMemory allocation total %lld exceeds capacity %lld",
                static_cast<long long>(gmem_->totalAllocated()),
                static_cast<long long>(gmem_->params().capacity));
}

void
ResidencyManager::auditForceResidentForTest(sim::ContextId ctx)
{
    info(ctx).state = State::Resident;
}

#endif // GPUMP_AUDIT_ENABLED

bool
ResidencyManager::resident(sim::ContextId ctx) const
{
    auto it = ctxs_.find(ctx);
    GPUMP_ASSERT(it != ctxs_.end(), "unregistered context %d", ctx);
    return it->second.state == State::Resident;
}

void
ResidencyManager::ensureResident(sim::ContextId ctx,
                                 std::function<void()> ready)
{
    CtxInfo &c = info(ctx);
    c.lastUse = ++useClock_;
#if GPUMP_AUDIT_ENABLED
    auditCapacity();
#endif
    switch (c.state) {
    case State::Resident:
        ready();
        return;
    case State::SwappingIn:
        c.waiters.push_back(std::move(ready));
        return;
    case State::SwappedOut:
        c.waiters.push_back(std::move(ready));
        if (!tryStartSwapIn(ctx) && !c.parked) {
            c.parked = true;
            parked_.push_back(ctx);
        }
        return;
    }
}

bool
ResidencyManager::makeRoom(std::int64_t bytes, sim::ContextId incoming)
{
    while (bytes > gmem_->params().capacity - gmem_->totalAllocated()) {
        sim::ContextId victim = sim::invalidContext;
        std::uint64_t oldest = 0;
        for (const auto &kv : ctxs_) {
            const CtxInfo &c = kv.second;
            if (kv.first == incoming || c.state != State::Resident)
                continue;
            if (pinned_ && pinned_(kv.first))
                continue;
            if (victim == sim::invalidContext || c.lastUse < oldest) {
                victim = kv.first;
                oldest = c.lastUse;
            }
        }
        if (victim == sim::invalidContext)
            return false;
        evict(victim);
    }
    return true;
}

void
ResidencyManager::evict(sim::ContextId victim)
{
    CtxInfo &v = info(victim);
    GPUMP_ASSERT(v.state == State::Resident, "evicting non-resident %d",
                 victim);
    gmem_->freeAll(victim);
    v.state = State::SwappedOut;
    ++swapOuts_;
    swapBytes_ += static_cast<double>(v.footprint);
    // Any SM that still has the victim loaded must reload it.
    if (remapNotify_)
        remapNotify_(victim);
    // The write-back occupies the transfer path; ordering with a
    // subsequent swap-in of the same context is preserved by the
    // transfer engine's own queueing.
    submit_(victim, v.priority, v.footprint, /*to_device=*/false,
            [this] { retryParked(); });
#if GPUMP_AUDIT_ENABLED
    auditCapacity();
#endif
}

bool
ResidencyManager::tryStartSwapIn(sim::ContextId ctx)
{
    CtxInfo &c = info(ctx);
    GPUMP_ASSERT(c.state == State::SwappedOut,
                 "swap-in of context %d in the wrong state", ctx);
    if (!makeRoom(c.footprint, ctx))
        return false;
    gmem_->allocate(ctx, c.footprint);
    c.state = State::SwappingIn;
    ++swapIns_;
    swapBytes_ += static_cast<double>(c.footprint);
    submit_(ctx, c.priority, c.footprint, /*to_device=*/true,
            [this, ctx] { finishSwapIn(ctx); });
#if GPUMP_AUDIT_ENABLED
    auditCapacity();
#endif
    return true;
}

void
ResidencyManager::finishSwapIn(sim::ContextId ctx)
{
    CtxInfo &c = info(ctx);
    GPUMP_ASSERT(c.state == State::SwappingIn,
                 "swap-in completion for context %d in the wrong state",
                 ctx);
    c.state = State::Resident;
    c.lastUse = ++useClock_;
#if GPUMP_AUDIT_ENABLED
    auditCapacity();
#endif
    std::vector<std::function<void()>> waiters = std::move(c.waiters);
    c.waiters.clear();
    for (auto &w : waiters)
        w();
    // The waiters may have changed pinning; give parked requests a go.
    retryParked();
}

void
ResidencyManager::onPinsReleased()
{
    retryParked();
}

void
ResidencyManager::retryParked()
{
    if (parked_.empty())
        return;
    // One pass over the current parked set, FIFO; requests that still
    // cannot make room re-park (and new parks during the pass append).
    std::vector<sim::ContextId> round = std::move(parked_);
    parked_.clear();
    for (sim::ContextId ctx : round) {
        CtxInfo &c = info(ctx);
        c.parked = false;
        if (c.state != State::SwappedOut || c.waiters.empty())
            continue; // resolved some other way
        if (!tryStartSwapIn(ctx) && !c.parked) {
            c.parked = true;
            parked_.push_back(ctx);
        }
    }
}

} // namespace memory
} // namespace gpump
