/**
 * @file
 * Scheduling policies (Sections 3.3-3.4, 4.2-4.4).
 *
 * A policy decides *which* kernels get admitted and *which* SMs they
 * run on; it triggers preemption through the framework and never
 * talks to the mechanism directly.
 *
 * Policies are named in policyRegistry() (see core/registry.hh); run
 * any bench or example with --list-schemes for the live list with doc
 * strings and declared tunables.  Built-ins: "fcfs" (the baseline
 * GPU), "npq", "ppq_excl", "ppq_shared" (Section 4.2-4.3), "dss"
 * (Algorithm 1), "ppq_aging" (PPQ with priority aging against
 * low-priority starvation) and "bore_burst" (predict/bore_burst.hh),
 * listed in policy.cc.
 */

#ifndef GPUMP_CORE_POLICY_HH
#define GPUMP_CORE_POLICY_HH

#include <memory>
#include <string>

#include "core/registry.hh"
#include "gpu/kernel_exec.hh"
#include "gpu/sm.hh"
#include "sim/config.hh"
#include "sim/types.hh"

namespace gpump {
namespace core {

class SchedulingFramework;

/** Abstract scheduling policy. */
class SchedulingPolicy
{
  public:
    virtual ~SchedulingPolicy() = default;

    /** Wire to the owning framework (called once at assembly). */
    virtual void bind(SchedulingFramework &fw) { fw_ = &fw; }

    /** @name Framework events
     * @{ */
    /** A kernel command appeared in @p ctx's command buffer. */
    virtual void onCommandWaiting(sim::ContextId ctx) = 0;

    /** @p sm just became idle (kernel drained or finished there). */
    virtual void onSmIdle(gpu::Sm *sm) = 0;

    /** @p k completed all thread blocks and left the tables.  The
     *  pointer is valid only for the duration of the call. */
    virtual void onKernelFinished(gpu::KernelExec *k) = 0;

    /**
     * Preemption of @p sm finished; @p next is the reservation target
     * (nullptr when that kernel finished in the meantime).  The SM is
     * idle; the policy decides what runs on it next.
     */
    virtual void onPreemptionComplete(gpu::Sm *sm,
                                      gpu::KernelExec *next) = 0;
    /** @} */

  protected:
    SchedulingFramework *fw_ = nullptr;
};

/** The process-wide registry of scheduling policies; the first call
 *  adds the built-ins. */
using PolicyRegistry = SchemeRegistry<SchedulingPolicy>;
PolicyRegistry &policyRegistry();

/**
 * Policy factory: a thin lookup into policyRegistry().
 *
 * @param name a registered policy ("fcfs", "npq", "ppq_excl",
 *             "ppq_shared", "dss", "ppq_aging", "bore_burst", or
 *             anything registered out of tree).
 * @param cfg  policy tunables (e.g. "dss.tokens_per_kernel").
 *
 * Raises fatal() for unknown names (listing every registered policy)
 * and for unknown or ill-typed keys under any policy-claimed config
 * namespace (naming the nearest declared tunable).
 */
std::unique_ptr<SchedulingPolicy>
makePolicy(const std::string &name, const sim::Config &cfg);

} // namespace core
} // namespace gpump

#endif // GPUMP_CORE_POLICY_HH
