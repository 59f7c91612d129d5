#include "core/framework.hh"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/audit.hh"
#include "core/policy.hh"
#include "gpu/transfer_engine.hh"
#include "memory/residency.hh"
#include "sim/logging.hh"

namespace gpump {
namespace core {

SchedulingFramework::SchedulingFramework(sim::Simulation &sim,
                                         const gpu::GpuParams &params,
                                         memory::GpuMemory &gmem,
                                         gpu::Dispatcher &dispatcher,
                                         gpu::TransferEngine &xfer,
                                         gpu::CommandPool &pool)
    : sim_(&sim), params_(params), gmem_(&gmem), dispatcher_(&dispatcher),
      xfer_(&xfer), pool_(&pool),
      kernelsCompleted_(sim.stats(), "engine.kernels_completed",
                        "kernels that ran to completion"),
      tbsCompleted_(sim.stats(), "engine.tbs_completed",
                    "thread blocks completed"),
      tbsRestored_(sim.stats(), "engine.tbs_restored",
                   "preempted thread blocks re-issued"),
      preemptions_(sim.stats(), "engine.preemptions",
                   "SM preemptions triggered"),
      ctxBytesSaved_(sim.stats(), "engine.ctx_bytes_saved",
                     "context bytes written back on preemption"),
      tbsSaved_(sim.stats(), "engine.tbs_saved",
                "thread blocks context-switched out"),
      tbsPrefetched_(sim.stats(), "engine.tbs_prefetched",
                     "preempted TBs granted restore credit"),
      ctxTransfers_(sim.stats(), "engine.ctx_transfers",
                    "driver-originated transfer commands"),
      preemptLatencyUs_(sim.stats(), "engine.preempt_latency_us",
                        "reservation-to-vacated latency (us)"),
      kernelQueueTimeUs_(sim.stats(), "engine.kernel_queue_us",
                         "enqueue-to-first-setup time of kernels (us)"),
      ptbqDepth_(sim.stats(), "engine.ptbq_depth",
                 "PTBQ occupancy after context saves")
{
    preemptedFirst_ =
        sim.config().getBool("engine.preempted_first", true);
    contendedSwitch_ = gmem.params().contendedSwitch;
    sms_.reserve(static_cast<std::size_t>(params_.numSms));
    for (int i = 0; i < params_.numSms; ++i) {
        sms_.push_back(std::make_unique<gpu::Sm>(i));
        gpu::Sm *sm = sms_.back().get();
        sm->timer = sim.events().addTimer([this, sm] {
            if (sm->state == gpu::Sm::State::Setup)
                finishSetup(sm);
            else
                onTbCompleted(sm);
        });
    }
    ksrt_.resize(static_cast<std::size_t>(maxActiveKernels(params_)));
    for (int i = maxActiveKernels(params_) - 1; i >= 0; --i)
        freeKsrs_.push_back(i);
    reserveTime_.assign(sms_.size(), 0);
    dispatcher_->setKernelSink(this);
}

SchedulingFramework::~SchedulingFramework() = default;

void
SchedulingFramework::setPolicy(std::unique_ptr<SchedulingPolicy> policy)
{
    GPUMP_ASSERT(policy != nullptr, "null policy");
    policy_ = std::move(policy);
    policy_->bind(*this);
}

void
SchedulingFramework::setMechanism(
    std::unique_ptr<PreemptionMechanism> mechanism)
{
    GPUMP_ASSERT(mechanism != nullptr, "null mechanism");
    mechanism_ = std::move(mechanism);
    mechanism_->bind(*this);
}

bool
SchedulingFramework::offerKernel(const gpu::CommandPtr &cmd)
{
    GPUMP_ASSERT(cmd && cmd->isKernel(), "offerKernel with non-kernel");
    GPUMP_ASSERT(policy_ != nullptr, "no scheduling policy installed");
    GPUMP_ASSERT(cmd->ctx >= 0, "kernel command with invalid context");
    auto idx = static_cast<std::size_t>(cmd->ctx);
    if (idx >= buffers_.size())
        buffers_.resize(idx + 1);
    if (buffers_[idx] != nullptr)
        return false; // buffer occupied
    buffers_[idx] = cmd;
    ++buffered_;
    policy_->onCommandWaiting(cmd->ctx);
    return true;
}

void
SchedulingFramework::waitingBuffers(std::vector<sim::ContextId> &out) const
{
    out.clear();
    out.reserve(buffered_);
    for (std::size_t i = 0; i < buffers_.size(); ++i) {
        if (buffers_[i] != nullptr)
            out.push_back(static_cast<sim::ContextId>(i));
    }
    std::sort(out.begin(), out.end(),
              [this](sim::ContextId a, sim::ContextId b) {
                  return buffers_[static_cast<std::size_t>(a)]->seq <
                      buffers_[static_cast<std::size_t>(b)]->seq;
              });
}

sim::ContextId
SchedulingFramework::frontWaitingBuffer() const
{
    if (buffered_ == 0)
        return sim::invalidContext;
    sim::ContextId front = sim::invalidContext;
    std::uint64_t front_seq = 0;
    for (std::size_t i = 0; i < buffers_.size(); ++i) {
        const gpu::CommandPtr &cmd = buffers_[i];
        if (cmd == nullptr)
            continue;
        if (front == sim::invalidContext || cmd->seq < front_seq) {
            front = static_cast<sim::ContextId>(i);
            front_seq = cmd->seq;
        }
    }
    return front;
}

bool
SchedulingFramework::hasBufferedCommand(sim::ContextId ctx) const
{
    auto idx = static_cast<std::size_t>(ctx);
    return ctx >= 0 && idx < buffers_.size() && buffers_[idx] != nullptr;
}

const gpu::CommandPtr &
SchedulingFramework::bufferedCommand(sim::ContextId ctx) const
{
    GPUMP_ASSERT(hasBufferedCommand(ctx),
                 "no buffered command for ctx %d", ctx);
    return buffers_[static_cast<std::size_t>(ctx)];
}

bool
SchedulingFramework::activeQueueFull() const
{
    return static_cast<int>(activeQueue_.size()) >=
        maxActiveKernels(params_);
}

int
SchedulingFramework::numActiveKernels() const
{
    return static_cast<int>(activeQueue_.size());
}

gpu::KernelExec *
SchedulingFramework::admit(sim::ContextId ctx)
{
    GPUMP_ASSERT(!activeQueueFull(), "admit with a full active queue");
    GPUMP_ASSERT(hasBufferedCommand(ctx),
                 "admit for ctx %d with empty command buffer", ctx);

    gpu::CommandPtr cmd =
        std::move(buffers_[static_cast<std::size_t>(ctx)]);
    buffers_[static_cast<std::size_t>(ctx)] = nullptr;
    --buffered_;

    GPUMP_ASSERT(!freeKsrs_.empty(), "active queue and KSRT out of sync");
    sim::KsrIndex ksr = freeKsrs_.back();
    freeKsrs_.pop_back();

    // The on-chip PTBQ sizing (Section 3.3) is only valid when
    // preempted blocks are re-issued first AND re-issue is immediate;
    // the fresh-first ablation and the contended-switch model (where
    // entries wait on restore fetches, so saves can pile up behind
    // slow transfers) both need an unbounded (off-chip) queue.
    int ptbq_capacity = (preemptedFirst_ && !contendedSwitch_)
        ? ptbqCapacityPerKernel(params_)
        : std::numeric_limits<int>::max();
    kernelQueueTimeUs_.sample(
        sim::toMicroseconds(sim_->now() - cmd->enqueuedAt));
    std::unique_ptr<gpu::KernelExec> &slot =
        ksrt_[static_cast<std::size_t>(ksr)];
    if (!ksrPool_.empty()) {
        slot = std::move(ksrPool_.back());
        ksrPool_.pop_back();
        slot->assign(ksr, std::move(cmd), params_, ptbq_capacity);
    } else {
        slot = std::make_unique<gpu::KernelExec>(ksr, std::move(cmd),
                                                 params_, ptbq_capacity);
    }
    gpu::KernelExec *k = slot.get();
    activeQueue_.push_back(k);
    for (EngineObserver *o : observers_)
        o->kernelAdmitted(*k);

    // The buffer slot is free again; let the dispatcher refill it.
    dispatcher_->onKernelBufferFreed();
    return k;
}

void
SchedulingFramework::admitInArrivalOrder()
{
    while (!activeQueueFull()) {
        sim::ContextId ctx = frontWaitingBuffer();
        if (ctx == sim::invalidContext)
            break;
        admit(ctx);
    }
}

gpu::Sm *
SchedulingFramework::findIdleSm()
{
    for (auto &sm : sms_) {
        if (sm->state == gpu::Sm::State::Idle && !sm->reserved)
            return sm.get();
    }
    return nullptr;
}

sim::ContextId
SchedulingFramework::engineContext() const
{
    for (const auto &sm : sms_) {
        if (sm->kernel != nullptr)
            return sm->kernel->ctx();
    }
    return sim::invalidContext;
}

int
SchedulingFramework::unallocatedTbs(const gpu::KernelExec *k) const
{
    GPUMP_ASSERT(k != nullptr, "unallocatedTbs(null)");
    int issuable = (k->totalTbs() - k->issuedFresh()) +
        static_cast<int>(k->ptbqDepth());
    int granted = 0;
    for (const auto &sm : sms_) {
        if (sm->kernel != k || sm->reserved)
            continue;
        if (sm->state == gpu::Sm::State::Setup)
            granted += k->occupancy();
        else if (sm->state == gpu::Sm::State::Running)
            granted += sm->freeSlots();
    }
    return std::max(0, issuable - granted);
}

int
SchedulingFramework::needExtra(const gpu::KernelExec *k) const
{
    return unallocatedTbs(k) - k->smsReserved * k->occupancy();
}

void
SchedulingFramework::assignSm(gpu::Sm *sm, gpu::KernelExec *k)
{
    GPUMP_ASSERT(sm != nullptr && k != nullptr, "assignSm(null)");
    GPUMP_ASSERT(sm->state == gpu::Sm::State::Idle && !sm->reserved,
                 "assignSm to non-idle SM %d (%s)", sm->id(),
                 smStateName(sm->state));
    GPUMP_ASSERT(k->hasIssuableTbs(),
                 "assignSm for kernel %s with nothing to issue",
                 k->profile().fullName().c_str());

    sm->kernel = k;
    sm->state = gpu::Sm::State::Setup;
    ++k->smsHeld;
    // The SM will fill up to the kernel's occupancy; grab the timeline
    // capacity once instead of growing it TB by TB.  Twice the
    // occupancy leaves the consumed prefix room to build up, so the
    // timeline reclaims it only once per occupancy-many completions.
    sm->resident.reserve(2 * static_cast<std::size_t>(k->occupancy()));

    // Setup proper waits for the context's state to be in device
    // memory.  For a resident context ensureResident runs the callback
    // synchronously.  The epoch guards against the swap-in landing
    // after this Setup assignment was unwound (reserveSm,
    // finalizeKernel) and the SM reused.
    std::uint64_t epoch = sm->setupEpoch;
    residency_->ensureResident(k->ctx(), [this, sm, k, epoch] {
        if (sm->setupEpoch != epoch || sm->kernel != k ||
            sm->state != gpu::Sm::State::Setup) {
            return;
        }
        beginSetup(sm);
    });
    for (EngineObserver *o : observers_)
        o->smAssigned(*sm, *k);
}

bool
SchedulingFramework::fillIdleSms(gpu::KernelExec *k)
{
    int uncovered = unallocatedTbs(k);
    for (auto &sm : sms_) {
        if (uncovered <= 0)
            break;
        if (sm->state != gpu::Sm::State::Idle || sm->reserved)
            continue;
        assignSm(sm.get(), k);
        uncovered -= k->occupancy();
    }
    GPUMP_AUDIT(std::max(0, uncovered) == unallocatedTbs(k),
                "fill of %s tracked %d uncovered TBs, the SMs say %d",
                k->profile().fullName().c_str(), uncovered,
                unallocatedTbs(k));
    return uncovered <= 0;
}

bool
SchedulingFramework::assignToReservation(gpu::Sm *sm,
                                         gpu::KernelExec *next)
{
    if (next == nullptr || unallocatedTbs(next) <= 0)
        return false;
    assignSm(sm, next);
    return true;
}

void
SchedulingFramework::beginSetup(gpu::Sm *sm)
{
    gpu::KernelExec *k = sm->kernel;
    sim::SimTime latency = params_.smSetupLatency;
    if (sm->loadedContext != k->ctx()) {
        latency += params_.contextLoadLatency;
        sm->loadedContext = k->ctx();
    }
    // A fresh sequence: the setup ties with same-time driver events
    // in the order they were issued, as any scheduled event does.
    sm->timer.arm(sim_->now() + latency, sim::prioDriver,
                  sim_->events().reserveSeq());
}

void
SchedulingFramework::finishSetup(gpu::Sm *sm)
{
    sm->state = gpu::Sm::State::Running;
    issueThreadBlocks(sm);
}

void
SchedulingFramework::placeResident(gpu::Sm *sm, gpu::KernelExec *k,
                                   int tb_index, sim::SimTime duration)
{
    gpu::ResidentTb tb;
    tb.tbIndex = tb_index;
    tb.startedAt = sim_->now();
    tb.endAt = sim_->now() + duration;
    // Reserve the FIFO sequence the old one-event-per-TB design
    // would have consumed here; the timeline event is armed with
    // it, so same-instant completions still interleave across SMs
    // in issue order.
    tb.seq = sim_->events().reserveSeq();
    sm->insertResident(tb);
    k->tbStarted();
    if (!k->startedIssuing) {
        k->startedIssuing = true;
        k->firstIssuedAt = sim_->now();
        for (EngineObserver *o : observers_)
            o->kernelStarted(*k);
    }
}

void
SchedulingFramework::issueThreadBlocks(gpu::Sm *sm)
{
    GPUMP_ASSERT(sm->kernel != nullptr, "issue on SM with no kernel");
    if (sm->reserved || sm->state != gpu::Sm::State::Running)
        return;

    gpu::KernelExec *k = sm->kernel;

    // Within one fill the taken blocks form (at most) two contiguous
    // segments — preempted then fresh under preempted-first issue,
    // the reverse under the fresh-first ablation — because taking a
    // block never makes the preferred source non-empty again, so both
    // segments can be sized up front.
    int slots = sm->freeSlots();
    int pre_avail = static_cast<int>(k->ptbqDepth());
    // Under the contended-switch model a preempted block may only
    // re-issue once its restore fetch has landed (the entry holds
    // restore credit); the share model re-issues immediately and folds
    // the restore cost into the block's runtime.
    int pre_ready = contendedSwitch_
        ? std::min(pre_avail, k->restoreCredit())
        : pre_avail;
    int fresh_avail = k->totalTbs() - k->issuedFresh();
    int n_pre, n_fresh;
    if (preemptedFirst_) {
        n_pre = std::min(slots, pre_ready);
        n_fresh = std::min(slots - n_pre, fresh_avail);
    } else {
        n_fresh = std::min(slots, fresh_avail);
        n_pre = std::min(slots - n_fresh, pre_ready);
    }

    auto issue_preempted = [&] {
        // Preempted blocks are re-issued first (Section 3.3); their
        // context is restored before execution resumes.  The restore
        // cost depends only on the kernel, so it is hoisted out of
        // the loop.  A block whose state was prefetched (restore
        // credit) skips the inline restore: its fetch already ran on
        // the transfer path.
        if (n_pre <= 0)
            return;
        sim::SimTime restore =
            gmem_->moveTime(k->contextBytesPerTb(), params_.numSms);
        for (int i = 0; i < n_pre; ++i) {
            gpu::PreemptedTb pt = k->takePreemptedTb();
            bool prefetched = k->consumeRestoreCredit();
            placeResident(sm, k, pt.tbIndex,
                          (prefetched ? 0 : restore) + pt.remaining);
            ++tbsRestored_;
        }
    };
    auto issue_fresh = [&] {
        if (params_.tbTimeCv <= 0.0) {
            sim::SimTime base = k->profile().tbDuration();
            for (int i = 0; i < n_fresh; ++i)
                placeResident(sm, k, k->takeFreshTb(), base);
            return;
        }
        for (int i = 0; i < n_fresh; ++i) {
            auto duration = std::max<sim::SimTime>(
                1, sim::microseconds(sim_->rng().lognormal(
                       k->tbDurationUs())));
            placeResident(sm, k, k->takeFreshTb(), duration);
        }
    };

    if (preemptedFirst_) {
        issue_preempted();
        issue_fresh();
    } else {
        issue_fresh();
        issue_preempted();
    }
    if (contendedSwitch_) {
        // Slots the fill left empty are waiting on restore fetches;
        // stage them now so the data is moving while the SM runs (or
        // waits).  stageRestore caps the request at the PTBQ entries
        // not already covered.
        int unfilled = slots - n_pre - n_fresh;
        if (unfilled > 0)
            stageRestore(k, unfilled);
    }
    armCompletion(sm);

    if (sm->resident.empty()) {
        if (parkedForRestore(sm)) {
            // Every runnable block is waiting on an in-flight restore
            // fetch; keep the SM parked on the kernel — restoreArrived
            // re-drives it.  Releasing it would bounce the assignment.
            return;
        }
        // Assigned but the kernel's work evaporated (issued elsewhere
        // between reservation decisions); hand the SM back.
        smBecameIdle(sm);
    }
}

void
SchedulingFramework::armCompletion(gpu::Sm *sm)
{
    if (sm->resident.empty()) {
        // An SM in Setup has no residents, and its timer carries the
        // setup: the SM was handed back and reassigned within this
        // completion's callback (a drain's last block, say).
        if (sm->state != gpu::Sm::State::Setup)
            sm->timer.disarm();
        return;
    }
    const gpu::ResidentTb &head = sm->resident.front();
    if (sm->timer.armed() && sm->armedSeq == head.seq)
        return; // already armed for the right block
    sm->armedSeq = head.seq;
    sm->timer.arm(head.endAt, sim::prioCompletion, head.seq);
}

void
SchedulingFramework::onTbCompleted(gpu::Sm *sm)
{
    gpu::KernelExec *k = sm->kernel;
    GPUMP_ASSERT(k != nullptr, "TB completion on kernel-less SM %d",
                 sm->id());
    GPUMP_ASSERT(!sm->resident.empty(),
                 "completion fired on SM %d with empty timeline",
                 sm->id());

    // The armed event always tracks the timeline head: completion is
    // a pop, not a search.
    const sim::SimTime tb_started = sm->resident.front().startedAt;
    sm->resident.popFront();
    k->tbEnded(true);
    ++tbsCompleted_;
    // Measurement hook: observers see the post-pop SM (resident empty
    // when this was a drain's last block) before any re-issue.
    for (EngineObserver *o : observers_)
        o->tbCompleted(*sm, *k, tb_started, sim_->now());

    bool kernel_done = k->finished();

    if (sm->reserved) {
        // Draining mechanism: preemption completes when the SM empties.
        GPUMP_ASSERT(sm->state == gpu::Sm::State::Draining,
                     "reserved SM %d got a TB completion in state %s",
                     sm->id(), smStateName(sm->state));
        if (sm->resident.empty())
            completePreemption(sm);
    } else {
        if (!kernel_done && k->hasIssuableTbs())
            issueThreadBlocks(sm);
        // Guard on the same kernel: smBecameIdle hands the SM to the
        // policy, which may already have re-assigned it.  A parked SM
        // (restores in flight) stays held; restoreArrived re-drives it.
        if (sm->kernel == k && sm->resident.empty() &&
            !parkedForRestore(sm)) {
            smBecameIdle(sm);
        }
    }

    // Re-arm for whatever is now at the head of the timeline (no-op
    // when issueThreadBlocks already armed it, or when the SM emptied
    // and was handed back).
    armCompletion(sm);

    if (kernel_done)
        finalizeKernel(k);
}

void
SchedulingFramework::smBecameIdle(gpu::Sm *sm)
{
    gpu::KernelExec *k = sm->kernel;
    GPUMP_ASSERT(k != nullptr, "smBecameIdle on kernel-less SM");
    GPUMP_ASSERT(sm->resident.empty(), "idle SM with resident TBs");
    --k->smsHeld;
    sm->clearKernel();
    policy_->onSmIdle(sm);
    residency_->onPinsReleased();
}

void
SchedulingFramework::reserveSm(gpu::Sm *sm, gpu::KernelExec *next)
{
    GPUMP_ASSERT(sm != nullptr && next != nullptr, "reserveSm(null)");
    GPUMP_ASSERT(sm->busy(), "reserving an idle SM");
    GPUMP_ASSERT(sm->kernel != next,
                 "reserving SM %d for the kernel already running on it",
                 sm->id());
    GPUMP_ASSERT(mechanism_ != nullptr, "no preemption mechanism");

    if (sm->reserved) {
        retargetReservation(sm, next);
        return;
    }

    sm->reserved = true;
    sm->nextKernel = next;
    ++next->smsReserved;
    reserveTime_[static_cast<std::size_t>(sm->id())] = sim_->now();
    ++preemptions_;
    for (EngineObserver *o : observers_)
        o->preemptionRequested(*sm, *sm->kernel, *next);

    if (sm->state == gpu::Sm::State::Setup) {
        // The kernel never started here; disarm the setup and hand
        // the SM over immediately.
        sm->timer.disarm();
        completePreemption(sm);
        return;
    }
    GPUMP_ASSERT(sm->state == gpu::Sm::State::Running,
                 "reserve of SM %d in state %s", sm->id(),
                 smStateName(sm->state));
    if (sm->resident.empty()) {
        // Parked for restore fetches (contended-switch model): nothing
        // is executing, so there is nothing to drain or save — hand
        // the SM over now.  The in-flight fetches land as credit on
        // the kernel and re-issue wherever it runs next.
        completePreemption(sm);
        return;
    }
    mechanism_->beginPreemption(sm);
}

void
SchedulingFramework::retargetReservation(gpu::Sm *sm,
                                         gpu::KernelExec *next)
{
    GPUMP_ASSERT(sm->reserved, "retarget of unreserved SM %d", sm->id());
    GPUMP_ASSERT(next != nullptr, "retarget to null kernel");
    if (sm->nextKernel == next)
        return;
    if (sm->nextKernel != nullptr)
        --sm->nextKernel->smsReserved;
    sm->nextKernel = next;
    ++next->smsReserved;
}

void
SchedulingFramework::recordContextSave(std::int64_t bytes, int tbs)
{
    ctxBytesSaved_ += static_cast<double>(bytes);
    tbsSaved_ += static_cast<double>(tbs);
}

void
SchedulingFramework::recordPtbqDepth(std::size_t depth)
{
    ptbqDepth_.sample(static_cast<double>(depth));
}

void
SchedulingFramework::completePreemption(gpu::Sm *sm)
{
    GPUMP_ASSERT(sm->reserved, "completePreemption on unreserved SM %d",
                 sm->id());
    GPUMP_ASSERT(sm->resident.empty(),
                 "preemption completed with TBs resident");

    gpu::KernelExec *old = sm->kernel;
    gpu::KernelExec *next = sm->nextKernel;
    GPUMP_ASSERT(old != nullptr, "preempted SM with no kernel");
    --old->smsHeld;
    if (next != nullptr)
        --next->smsReserved;

    preemptLatencyUs_.sample(sim::toMicroseconds(
        sim_->now() - reserveTime_[static_cast<std::size_t>(sm->id())]));
    for (EngineObserver *o : observers_)
        o->preemptionCompleted(*sm);

    sm->clearKernel();
    policy_->onPreemptionComplete(sm, next);
    residency_->onPinsReleased();
}

void
SchedulingFramework::finalizeKernel(gpu::KernelExec *k)
{
    GPUMP_ASSERT(k->finished(), "finalize of unfinished kernel");

    // Take the kernel out of the tables first so policy callbacks
    // fired during the unwind below observe consistent state.  The
    // object stays alive (owned) until the end of this function.
    activeQueue_.erase(
        std::remove(activeQueue_.begin(), activeQueue_.end(), k),
        activeQueue_.end());
    sim::KsrIndex ksr = k->ksr();
    auto owned = std::move(ksrt_[static_cast<std::size_t>(ksr)]);
    freeKsrs_.push_back(ksr);

    // Unwind any SM still pointing at this kernel.  Only Setup SMs
    // can remain (their work evaporated before they were configured);
    // SMs with resident TBs cannot exist once every TB completed.
    // Orphan reservations targeting the dead kernel are cleared; the
    // policy learns about them when those preemptions complete.
    for (auto &sm : sms_) {
        if (sm->nextKernel == k) {
            sm->nextKernel = nullptr;
            --k->smsReserved;
        }
        if (sm->kernel == k) {
            GPUMP_ASSERT(sm->state == gpu::Sm::State::Setup,
                         "finished kernel still owns SM %d in state %s",
                         sm->id(), smStateName(sm->state));
            GPUMP_ASSERT(!sm->reserved,
                         "finished kernel owns a reserved Setup SM");
            sm->timer.disarm();
            --k->smsHeld;
            sm->clearKernel();
            policy_->onSmIdle(sm.get());
        }
    }
    GPUMP_ASSERT(k->smsHeld == 0,
                 "finished kernel %s still holds %d SMs",
                 k->profile().fullName().c_str(), k->smsHeld);
    GPUMP_ASSERT(k->smsReserved == 0,
                 "finished kernel %s still has %d reservations",
                 k->profile().fullName().c_str(), k->smsReserved);

    ++kernelsCompleted_;
    // Observers before the policy callback, so an observing policy
    // decides with this kernel's burst already folded in.
    for (EngineObserver *o : observers_)
        o->kernelFinished(*owned, sim_->now());
    policy_->onKernelFinished(owned.get());
    residency_->onPinsReleased();

    gpu::CommandPtr cmd = owned->command();
    owned->releaseCommand();
    ksrPool_.push_back(std::move(owned)); // recycled by the next admit

    if (cmd->queue != nullptr)
        dispatcher_->onCommandCompleted(cmd->queue);
    cmd->complete();
}

void
SchedulingFramework::submitContextTransfer(sim::ContextId ctx, int priority,
                                           std::int64_t bytes,
                                           gpu::Command::Kind kind,
                                           std::function<void()> done)
{
    GPUMP_ASSERT(kind != gpu::Command::Kind::KernelLaunch,
                 "context transfer must be a memcpy");
    gpu::CommandPtr cmd = pool_->makeMemcpy(ctx, priority, kind, bytes);
    cmd->onComplete = std::move(done);
    dispatcher_->stampInternal(cmd);
    ++ctxTransfers_;
    xfer_->submit(cmd);
}

int
SchedulingFramework::stageRestore(gpu::KernelExec *k, int max_tbs)
{
    GPUMP_ASSERT(k != nullptr, "stageRestore(null)");
    if (max_tbs <= 0)
        return 0;
    int uncovered = static_cast<int>(k->ptbqDepth()) -
        k->restoreCredit() - k->restoreInFlight();
    // Negative uncovered would mean more covered entries than the
    // queue holds: credit/in-flight leaked past the take clamp.  It
    // is tolerated here only as "nothing to stage", so audit it
    // instead of letting min() hide the corruption.
    GPUMP_AUDIT(uncovered >= -k->restoreInFlight(),
                "restore coverage beyond PTBQ + in-flight for %s "
                "(depth=%zu credit=%d inflight=%d)",
                k->profile().fullName().c_str(), k->ptbqDepth(),
                k->restoreCredit(), k->restoreInFlight());
    int n = std::min(max_tbs, uncovered);
    if (n <= 0)
        return 0;
    k->restoreRequested(n);
    std::uint64_t gen = k->generation();
    std::int64_t bytes = k->contextBytesPerTb() * n;
    if (contendedSwitch_) {
        submitContextTransfer(
            k->ctx(), k->priority(), bytes, gpu::Command::Kind::MemcpyH2D,
            [this, k, gen, n] { restoreArrived(k, gen, n); });
    } else {
        // Share-model staging (proactive prefetch without the
        // contended-switch model): the fetch takes the bandwidth-share
        // move time but queues behind nothing.
        sim_->events().scheduleIn(
            gmem_->moveTime(bytes, params_.numSms),
            [this, k, gen, n] { restoreArrived(k, gen, n); },
            sim::prioDriver);
    }
    return n;
}

void
SchedulingFramework::restoreArrived(gpu::KernelExec *k, std::uint64_t gen,
                                    int n)
{
    if (k->generation() != gen) {
        // The kernel finished and its KSR slot was recycled while the
        // fetch was in flight (share-model prefetch only; contended
        // parking keeps the kernel on an SM).  Nothing to credit.
        return;
    }
    k->restoreArrived(n);
    tbsPrefetched_ += static_cast<double>(n);
    for (auto &sm : sms_) {
        if (sm->kernel == k)
            issueThreadBlocks(sm.get());
    }
}

bool
SchedulingFramework::parkedForRestore(const gpu::Sm *sm) const
{
    return contendedSwitch_ && !sm->reserved && sm->kernel != nullptr &&
        sm->kernel->restoreInFlight() > 0;
}

void
SchedulingFramework::onContextRemapped(sim::ContextId ctx)
{
    for (auto &sm : sms_) {
        if (sm->loadedContext == ctx)
            sm->loadedContext = sim::invalidContext;
    }
}

bool
SchedulingFramework::contextPinned(sim::ContextId ctx) const
{
    for (const auto &sm : sms_) {
        if (sm->kernel != nullptr && sm->kernel->ctx() == ctx)
            return true;
        if (sm->nextKernel != nullptr && sm->nextKernel->ctx() == ctx)
            return true;
    }
    return false;
}

} // namespace core
} // namespace gpump
