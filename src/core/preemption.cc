#include "core/preemption.hh"

#include "core/adaptive.hh"
#include "core/context_switch.hh"
#include "core/draining.hh"
#include "core/proactive_mem.hh"
#include "predict/pred_adaptive.hh"

namespace gpump {
namespace core {

MechanismRegistry &
mechanismRegistry()
{
    // The built-in mechanisms, one entry each; out-of-tree mechanisms
    // add() themselves.
    static MechanismRegistry registry("preemption mechanism", {
        contextSwitchDescriptor(),
        drainingDescriptor(),
        adaptiveDescriptor(),
        proactiveMemDescriptor(),
        predict::predAdaptiveDescriptor(),
    });
    return registry;
}

std::unique_ptr<PreemptionMechanism>
makeMechanism(const std::string &name, const sim::Config &cfg)
{
    return mechanismRegistry().make(name, cfg);
}

} // namespace core
} // namespace gpump
