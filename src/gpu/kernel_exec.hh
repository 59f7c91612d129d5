/**
 * @file
 * KernelExec: one active kernel in the execution engine.
 *
 * Corresponds to a valid Kernel Status Register (KSR) entry augmented
 * with its GPU context id (Section 3.3): grid bookkeeping (how many
 * thread blocks remain to issue / complete), the kernel's occupancy
 * and context footprint, the Preempted Thread Block Queue contents,
 * and the policy-owned token count used by DSS.
 */

#ifndef GPUMP_GPU_KERNEL_EXEC_HH
#define GPUMP_GPU_KERNEL_EXEC_HH

#include <cstdint>
#include <deque>

#include "gpu/command.hh"
#include "gpu/gpu_config.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace gpump {
namespace gpu {

/** Handler of a preempted thread block (one PTBQ entry): its id and
 *  how much execution time it still needs (the saved stack pointer in
 *  real hardware; remaining time in this timing model). */
struct PreemptedTb
{
    int tbIndex;
    sim::SimTime remaining;
};

/** One active kernel (a live KSRT entry). */
class KernelExec
{
  public:
    /**
     * @param ksr     KSRT slot this kernel occupies.
     * @param cmd     the kernel-launch command (grid, context,
     *                priority, completion callback).
     * @param params  architecture parameters for occupancy and
     *                context-size derivation.
     * @param ptbq_capacity PTBQ entries available to this kernel
     *                (NSMs x Tmax, Section 3.3).
     */
    KernelExec(sim::KsrIndex ksr, CommandPtr cmd, const GpuParams &params,
               int ptbq_capacity);

    /**
     * Reinitialize a recycled entry for a new kernel (same semantics
     * as constructing one).  The framework pools retired KernelExec
     * objects: a kernel launch happens once per trace op per replay,
     * and reassignment keeps the object's PTBQ storage instead of
     * paying an allocation per launch.
     */
    void assign(sim::KsrIndex ksr, CommandPtr cmd,
                const GpuParams &params, int ptbq_capacity);

    /** Drop the command reference before the object parks in the
     *  recycle pool (the command must be completable independently). */
    void releaseCommand() { cmd_.reset(); }

    /** @name Identity
     * @{ */
    sim::KsrIndex ksr() const { return ksr_; }
    const trace::KernelProfile &profile() const { return *cmd_->profile; }
    sim::ContextId ctx() const { return cmd_->ctx; }
    int priority() const { return cmd_->priority; }
    std::uint64_t seq() const { return cmd_->seq; }
    const CommandPtr &command() const { return cmd_; }
    /** @} */

    /** @name Static execution properties
     * @{ */
    /** Thread blocks of this kernel that fit on one SM. */
    int occupancy() const { return occupancy_; }
    /** Context bytes to save/restore per thread block. */
    std::int64_t contextBytesPerTb() const { return ctxBytesPerTb_; }
    /** Distribution of fresh thread-block durations in microseconds:
     *  the profile mean at GpuParams::tbTimeCv, solved once per
     *  launch.  Meaningful only when tbTimeCv > 0. */
    const sim::Rng::Lognormal &tbDurationUs() const
    {
        return tbDurationUs_;
    }
    int totalTbs() const { return totalTbs_; }
    /** @} */

    /** @name Thread-block issue bookkeeping
     * @{ */
    int issuedFresh() const { return nextFresh_; }
    int completed() const { return completed_; }
    int running() const { return running_; }
    bool hasFreshTbs() const { return nextFresh_ < totalTbs_; }
    bool hasPreemptedTbs() const { return !ptbq_.empty(); }
    /** True while the SM driver could issue a TB of this kernel. */
    bool hasIssuableTbs() const
    {
        return hasPreemptedTbs() || hasFreshTbs();
    }
    bool finished() const { return completed_ == totalTbs_; }
    std::size_t ptbqDepth() const { return ptbq_.size(); }

    /** Take the next fresh thread block index. @pre hasFreshTbs() */
    int takeFreshTb()
    {
        GPUMP_ASSERT(hasFreshTbs(), "takeFreshTb with no fresh TBs left");
        return nextFresh_++;
    }

    /** Pop the oldest preempted TB. @pre hasPreemptedTbs() */
    PreemptedTb takePreemptedTb();

    /** Queue a preempted TB; panics if the PTBQ overflows (the sizing
     *  of Section 3.3 makes overflow impossible by construction). */
    void pushPreemptedTb(const PreemptedTb &tb);

    /** A TB of this kernel started executing on some SM. */
    void tbStarted()
    {
        ++running_;
        GPUMP_ASSERT(running_ <= totalTbs_, "more TBs running than exist");
    }

    /** A TB of this kernel finished (or was preempted before
     *  completing: @p completed false). */
    void tbEnded(bool completed)
    {
        GPUMP_ASSERT(running_ > 0, "tbEnded with no running TBs");
        --running_;
        if (completed) {
            ++completed_;
            GPUMP_ASSERT(completed_ <= totalTbs_,
                         "kernel %s completed more TBs than its grid",
                         profile().fullName().c_str());
        }
    }
    /** @} */

    /** @name Restore staging (contended-switch / proactive prefetch)
     *
     * A PTBQ entry's saved context can be fetched back ahead of
     * re-issue: the framework stages a restore transfer (in flight),
     * and on arrival the entries gain restore *credit* — a credited
     * entry re-issues without paying the inline restore prefix.
     * Credit never exceeds the PTBQ depth, so prefetched state cannot
     * leak onto blocks saved by a later preemption.
     * @{ */
    /** Bumped by every assign(); lets async restore completions detect
     *  that the KernelExec was recycled for a different kernel. */
    std::uint64_t generation() const { return generation_; }
    int restoreCredit() const { return restoreCredit_; }
    int restoreInFlight() const { return restoreInFlight_; }
    /** A restore fetch covering @p n PTBQ entries was submitted. */
    void restoreRequested(int n);
    /** A fetch covering @p n entries landed: convert to credit. */
    void restoreArrived(int n);
    /** Consume one credit; false when none is available. */
    bool consumeRestoreCredit();
    /** @} */

    /** @name Policy-owned scratch state
     *
     * The scheduling policy is the only writer; the framework never
     * interprets these.
     * @{ */
    /** DSS token count (may go negative: debt, Section 3.4). */
    int tokens = 0;
    /** True while this kernel holds one of the r remainder tokens. */
    bool hasBonusToken = false;
    /** @} */

    /** @name SM accounting (maintained by the framework)
     * @{ */
    int smsHeld = 0;     ///< SMs currently set up for this kernel
    int smsReserved = 0; ///< SMs being preempted on this kernel's behalf
    bool startedIssuing = false; ///< first TB has been issued
    /** When the first TB was issued (meaningful once startedIssuing).
     *  Driver-observable service-time anchor for the measurement-fed
     *  schedulers (core/observer.hh). */
    sim::SimTime firstIssuedAt = 0;
    /** @} */

  private:
    sim::KsrIndex ksr_;
    CommandPtr cmd_;
    int occupancy_;
    std::int64_t ctxBytesPerTb_;
    sim::Rng::Lognormal tbDurationUs_;
    int totalTbs_;
    int ptbqCapacity_;
    int nextFresh_ = 0;
    int completed_ = 0;
    int running_ = 0;
    int restoreCredit_ = 0;
    int restoreInFlight_ = 0;
    std::uint64_t generation_ = 0;
    std::deque<PreemptedTb> ptbq_;
};

} // namespace gpu
} // namespace gpump

#endif // GPUMP_GPU_KERNEL_EXEC_HH
