/**
 * @file
 * Preemption mechanisms (Section 3.2).
 *
 * A mechanism answers one question: how does an SM that the policy
 * reserved get vacated?  Built-in implementations:
 *  - ContextSwitchMechanism: stop the SM, save the architectural
 *    context of every resident thread block to off-chip memory, and
 *    queue the blocks for later re-issue (classic OS-style preemption);
 *  - DrainingMechanism: stop issuing new thread blocks and let the
 *    resident ones run to completion (preemption at the thread-block
 *    boundary the programming model guarantees);
 *  - AdaptiveMechanism (core/adaptive.hh): picks one of the above per
 *    SM from the estimated drain time vs. the modeled save cost.
 *
 * Mechanisms are policy-agnostic; policies are mechanism-agnostic
 * (Section 3: "mechanisms separated from policies").  Like policies,
 * mechanisms are named in mechanismRegistry() (core/registry.hh):
 * preemption.cc lists the built-ins (the three above, "proactive_mem"
 * and predict/'s "pred_adaptive"), and more can be added from outside
 * src/ entirely.
 */

#ifndef GPUMP_CORE_PREEMPTION_HH
#define GPUMP_CORE_PREEMPTION_HH

#include <memory>
#include <string>

#include "core/registry.hh"
#include "gpu/sm.hh"
#include "sim/config.hh"

namespace gpump {
namespace core {

class SchedulingFramework;

/** Abstract preemption mechanism. */
class PreemptionMechanism
{
  public:
    virtual ~PreemptionMechanism() = default;

    /**
     * Begin vacating @p sm.  The SM is already flagged reserved and
     * is in the Running state with at least one resident thread
     * block.  The mechanism must eventually cause
     * SchedulingFramework::completePreemption(sm) to run.
     */
    virtual void beginPreemption(gpu::Sm *sm) = 0;

    /** Wire to the owning framework (called once at assembly).
     *  Composite mechanisms override this to bind their parts. */
    virtual void bind(SchedulingFramework &fw) { fw_ = &fw; }

  protected:
    SchedulingFramework *fw_ = nullptr;
};

/** The process-wide registry of preemption mechanisms; the first
 *  call adds the built-ins. */
using MechanismRegistry = SchemeRegistry<PreemptionMechanism>;
MechanismRegistry &mechanismRegistry();

/**
 * Mechanism factory: a thin lookup into mechanismRegistry().
 *
 * @param name a registered mechanism ("context_switch", "draining",
 *             "adaptive", "proactive_mem", "pred_adaptive", or
 *             anything registered out of tree).
 * @param cfg  mechanism tunables (e.g. "adaptive.bias").
 *
 * Raises fatal() for unknown names (listing every registered
 * mechanism) and for unknown or ill-typed keys under any
 * mechanism-claimed config namespace.
 */
std::unique_ptr<PreemptionMechanism>
makeMechanism(const std::string &name,
              const sim::Config &cfg = sim::Config());

} // namespace core
} // namespace gpump

#endif // GPUMP_CORE_PREEMPTION_HH
