#include "core/policy.hh"

#include "core/aging.hh"
#include "core/dss.hh"
#include "core/fcfs.hh"
#include "core/priority.hh"
#include "predict/bore_burst.hh"

namespace gpump {
namespace core {

PolicyRegistry &
policyRegistry()
{
    // The built-in policies, one entry each; out-of-tree policies
    // add() themselves.
    static PolicyRegistry registry("scheduling policy", {
        fcfsDescriptor(),
        npqDescriptor(),
        ppqDescriptor(/*exclusive=*/true),
        ppqDescriptor(/*exclusive=*/false),
        dssDescriptor(),
        ppqAgingDescriptor(),
        predict::boreBurstDescriptor(),
    });
    return registry;
}

std::unique_ptr<SchedulingPolicy>
makePolicy(const std::string &name, const sim::Config &cfg)
{
    return policyRegistry().make(name, cfg);
}

} // namespace core
} // namespace gpump
