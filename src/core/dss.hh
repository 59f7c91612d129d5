/**
 * @file
 * Dynamic Spatial Sharing (Section 3.4, Algorithm 1).
 *
 * DSS partitions the SMs among active kernels using tokens that
 * represent SM ownership.  A kernel pays one token per SM it is
 * assigned and is refunded when an SM is taken away; kernels may go
 * into debt (negative counts) so idle SMs are never wasted.  The
 * partition procedure runs when a kernel enters the active queue and
 * when an SM goes idle, and rebalances by preempting SMs of the
 * token-poorest kernel for the token-richest kernel until the spread
 * is at most one.
 *
 * Notes relative to the paper's pseudo-code: the published Algorithm 1
 * returns when the maximum and minimum counts are equal, which read
 * literally would leave SMs idle whenever all counts coincide (and
 * would never start a lone kernel).  The prose — debt exists exactly
 * so that "kernels are allowed to occupy more SMs" when SMs would
 * otherwise idle — resolves the ambiguity: the equal-count early-out
 * applies to the preemption branch only, and idle SMs are always
 * handed to the richest kernel with work.  That is what this
 * implementation does.
 */

#ifndef GPUMP_CORE_DSS_HH
#define GPUMP_CORE_DSS_HH

#include "core/policy.hh"

namespace gpump {
namespace core {

/** The DSS scheduling policy. */
class DssPolicy : public SchedulingPolicy
{
  public:
    /**
     * @param tokens_per_kernel SM budget granted to each kernel on
     *        admission (equal sharing: floor(NSMs / Nprocesses)).
     * @param bonus_tokens the remainder r = NSMs mod Nprocesses,
     *        granted one-per-kernel to the first r admitted kernels
     *        and recycled when a holder finishes.
     * @param retarget enable re-targeting of in-flight reservations
     *        when their beneficiary no longer needs the SM
     *        (Section 3.4 optimisation; ablated in
     *        bench/ablation_retarget).
     */
    DssPolicy(int tokens_per_kernel, int bonus_tokens, bool retarget);

    void onCommandWaiting(sim::ContextId ctx) override;
    void onSmIdle(gpu::Sm *sm) override;
    void onKernelFinished(gpu::KernelExec *k) override;
    void onPreemptionComplete(gpu::Sm *sm, gpu::KernelExec *next) override;

    int bonusPool() const { return bonusPool_; }

  private:
    void admit();
    void partition();
    void partitionLoop();
    void retargetOrphans();

    /** Token-richest kernel that still needs capacity (gainer). */
    gpu::KernelExec *findMax() const;

    /** Token-poorest kernel holding at least one preemptible SM. */
    gpu::KernelExec *findMin() const;

    /** Lowest-id preemptible SM of @p k; nullptr when none. */
    gpu::Sm *pickVictim(gpu::KernelExec *k) const;

    int tokensPerKernel_;
    int bonusPool_;
    bool retarget_;
    bool inPartition_ = false;
    bool partitionAgain_ = false;
};

/** Descriptor of the built-in "dss" policy. */
PolicyRegistry::Descriptor dssDescriptor();

} // namespace core
} // namespace gpump

#endif // GPUMP_CORE_DSS_HH
