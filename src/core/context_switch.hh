/**
 * @file
 * The context-switch preemption mechanism (Section 3.2, mechanism 1).
 *
 * On preemption the SM's pipeline is drained (precise exceptions),
 * then a microprogrammed trap routine saves the execution context of
 * every resident thread block — architectural registers, the shared
 * memory partition, and per-block control state — to preallocated
 * off-chip memory at the SM's share of the global memory bandwidth.
 * Thread blocks are pushed to the kernel's PTBQ with their remaining
 * work and re-issued (restore first) before fresh blocks.
 */

#ifndef GPUMP_CORE_CONTEXT_SWITCH_HH
#define GPUMP_CORE_CONTEXT_SWITCH_HH

#include <vector>

#include "core/preemption.hh"
#include "gpu/kernel_exec.hh"

namespace gpump {
namespace core {

/** Save/restore preemption. */
class ContextSwitchMechanism : public PreemptionMechanism
{
  public:
    const char *name() const override { return "context_switch"; }
    void beginPreemption(gpu::Sm *sm) override;

  private:
    /** Saved context is off the SM: queue the blocks and release it. */
    void finishSave(gpu::Sm *sm, gpu::KernelExec *k,
                    const std::vector<gpu::PreemptedTb> &saved);
};

} // namespace core
} // namespace gpump

#endif // GPUMP_CORE_CONTEXT_SWITCH_HH
