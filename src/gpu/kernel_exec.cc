#include "gpu/kernel_exec.hh"

#include <algorithm>

#include "core/audit.hh"
#include "sim/logging.hh"

namespace gpump {
namespace gpu {

KernelExec::KernelExec(sim::KsrIndex ksr, CommandPtr cmd,
                       const GpuParams &params, int ptbq_capacity)
{
    assign(ksr, std::move(cmd), params, ptbq_capacity);
}

void
KernelExec::assign(sim::KsrIndex ksr, CommandPtr cmd,
                   const GpuParams &params, int ptbq_capacity)
{
    GPUMP_ASSERT(cmd != nullptr && cmd->isKernel(),
                 "KernelExec from non-kernel command");
    ksr_ = ksr;
    cmd_ = std::move(cmd);
    occupancy_ = maxTbsPerSm(*cmd_->profile, params);
    ctxBytesPerTb_ = cmd_->profile->contextBytesPerTb();
    if (params.tbTimeCv > 0.0) {
        tbDurationUs_ = sim::Rng::Lognormal::fromMeanCv(
            sim::toMicroseconds(cmd_->profile->tbDuration()),
            params.tbTimeCv);
    }
    totalTbs_ = cmd_->profile->numThreadBlocks;
    ptbqCapacity_ = ptbq_capacity;
    nextFresh_ = 0;
    completed_ = 0;
    running_ = 0;
    ptbq_.clear();
    restoreCredit_ = 0;
    restoreInFlight_ = 0;
    tokens = 0;
    hasBonusToken = false;
    smsHeld = 0;
    smsReserved = 0;
    startedIssuing = false;
    firstIssuedAt = 0;
    GPUMP_ASSERT(totalTbs_ > 0, "kernel %s with empty grid",
                 cmd_->profile->fullName().c_str());
}

PreemptedTb
KernelExec::takePreemptedTb()
{
    GPUMP_ASSERT(hasPreemptedTbs(), "takePreemptedTb on empty PTBQ");
    PreemptedTb tb = ptbq_.front();
    ptbq_.pop_front();
    // An uncredited take (inline-restore path) can shrink the queue
    // below the credit count; clamp so prefetched credit never
    // outlives the entries it was fetched for.
    if (restoreCredit_ > static_cast<int>(ptbq_.size()))
        restoreCredit_ = static_cast<int>(ptbq_.size());
    // Prefetched credit must never outlive the queue entries it was
    // fetched for — otherwise an SM issues a "restored" TB that has no
    // context behind it.
    GPUMP_AUDIT(restoreCredit_ >= 0 && restoreInFlight_ >= 0 &&
                    restoreCredit_ <= static_cast<int>(ptbq_.size()),
                "restore-credit accounting corrupt after take "
                "(credit=%d inflight=%d ptbq=%zu)",
                restoreCredit_, restoreInFlight_, ptbq_.size());
    return tb;
}

void
KernelExec::pushPreemptedTb(const PreemptedTb &tb)
{
    GPUMP_ASSERT(static_cast<int>(ptbq_.size()) < ptbqCapacity_,
                 "PTBQ overflow for kernel %s (capacity %d)",
                 profile().fullName().c_str(), ptbqCapacity_);
    ptbq_.push_back(tb);
}

void
KernelExec::restoreRequested(int n)
{
    GPUMP_ASSERT(n > 0, "empty restore request");
    GPUMP_ASSERT(restoreCredit_ + restoreInFlight_ + n <=
                     static_cast<int>(ptbq_.size()),
                 "restore request beyond the PTBQ for kernel %s",
                 profile().fullName().c_str());
    restoreInFlight_ += n;
}

void
KernelExec::restoreArrived(int n)
{
    GPUMP_ASSERT(n > 0 && restoreInFlight_ >= n,
                 "restore arrival of %d with %d in flight", n,
                 restoreInFlight_);
    restoreInFlight_ -= n;
    restoreCredit_ = std::min(restoreCredit_ + n,
                              static_cast<int>(ptbq_.size()));
    // Fetches are staged only under the contended model, where an
    // entry re-issues only against credit, so credit + inflight stays
    // within the queue; the clamp and the audit keep credit from ever
    // outgrowing the entries it covers.
    GPUMP_AUDIT(restoreCredit_ <= static_cast<int>(ptbq_.size()) &&
                    restoreInFlight_ >= 0,
                "restore-credit clamp failed on arrival "
                "(credit=%d inflight=%d ptbq=%zu)",
                restoreCredit_, restoreInFlight_, ptbq_.size());
}

bool
KernelExec::consumeRestoreCredit()
{
    if (restoreCredit_ <= 0)
        return false;
    --restoreCredit_;
    return true;
}

} // namespace gpu
} // namespace gpump
