/**
 * @file
 * The baseline first-come first-serve policy (Section 2.3).
 *
 * Models today's GPUs: kernel commands are admitted and scheduled in
 * arrival order; the execution engine runs one context at a time
 * (kernels from a different context wait until the engine drains);
 * independent kernels of the *same* context execute back to back on
 * SMs that free up.  Never preempts.
 */

#ifndef GPUMP_CORE_FCFS_HH
#define GPUMP_CORE_FCFS_HH

#include "core/policy.hh"

namespace gpump {
namespace core {

/** Baseline FCFS scheduling. */
class FcfsPolicy : public SchedulingPolicy
{
  public:
    const char *name() const override { return "fcfs"; }

    void onCommandWaiting(sim::ContextId ctx) override;
    void onSmIdle(gpu::Sm *sm) override;
    void onKernelFinished(gpu::KernelExec *k) override;
    void onPreemptionComplete(gpu::Sm *sm, gpu::KernelExec *next) override;

  private:
    void schedule();
};

} // namespace core
} // namespace gpump

#endif // GPUMP_CORE_FCFS_HH
