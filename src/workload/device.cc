#include "workload/device.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/policy.hh"
#include "core/preemption.hh"
#include "core/registry.hh"
#include "sim/logging.hh"

namespace gpump {
namespace workload {

void
rejectUnreadKeys(const sim::Config &cfg)
{
    const std::vector<std::string> read = cfg.readKeys();
    for (const std::string &key : cfg.keys()) {
        if (core::policyRegistry().claimant(key) != nullptr ||
            core::mechanismRegistry().claimant(key) != nullptr ||
            std::binary_search(read.begin(), read.end(), key)) {
            continue;
        }
        std::string near = core::nearestOf(key, read);
        if (!near.empty()) {
            sim::fatal("unknown config key '%s'; did you mean '%s'?",
                       key.c_str(), near.c_str());
        }
        sim::fatal("unknown config key '%s': no scheme claims it and "
                   "the simulator reads no such key",
                   key.c_str());
    }
}

Device::Device(const std::string &policy, const std::string &mechanism,
               sim::Config cfg, std::uint64_t seed,
               gpu::TransferEngine::Policy xfer_policy, int processes)
    : sim(seed, std::move(cfg)),
      params(gpu::GpuParams::fromConfig(sim.config())),
      gmem(sim.stats(),
           memory::GpuMemoryParams::fromConfig(sim.config())),
      pcie(sim.stats(), memory::PcieParams::fromConfig(sim.config())),
      xfer(sim, pcie, xfer_policy),
      dispatcher(sim, xfer),
      framework(sim, params, gmem, dispatcher, xfer, pool),
      // Swap transfers ride the same transfer engine as workload
      // copies; the engine-side hooks (pinning, SMs forgetting an
      // evicted context) route back into the framework.
      residency(sim.stats(), gmem,
                [this](sim::ContextId ctx, int priority,
                       std::int64_t bytes, bool to_device,
                       std::function<void()> done) {
                    framework.submitContextTransfer(
                        ctx, priority, bytes,
                        to_device ? gpu::Command::Kind::MemcpyH2D
                                  : gpu::Command::Kind::MemcpyD2H,
                        std::move(done));
                })
{
    xfer.setCompletionNotifier([this](gpu::CommandQueue *q) {
        dispatcher.onCommandCompleted(q);
    });
    framework.setMechanism(core::makeMechanism(mechanism, sim.config()));
    residency.setPinQuery([this](sim::ContextId ctx) {
        return framework.contextPinned(ctx);
    });
    residency.setRemapNotifier([this](sim::ContextId ctx) {
        framework.onContextRemapped(ctx);
    });
    framework.setResidency(&residency);

    // Let the policy fill contextual defaults now that the machine and
    // workload sizes are known (e.g. DSS's equal-share token budget,
    // Section 4.4: tc = floor(NSMs / Nprocs) plus the remainder as
    // bonus tokens).
    const core::PolicyRegistry::Descriptor &policy_desc =
        core::policyRegistry().at(policy);
    sim::Config policy_cfg = sim.config();
    if (policy_desc.assemblyDefaults)
        policy_desc.assemblyDefaults(policy_cfg, params.numSms, processes);
    framework.setPolicy(core::makePolicy(policy, policy_cfg));

    rejectUnreadKeys(sim.config());
}

gpu::CommandQueue *
Device::addContext(sim::ContextId ctx, int priority,
                   std::int64_t footprint)
{
    residency.registerContext(ctx, priority, footprint);
    return dispatcher.createQueue(ctx, params.numHwQueues);
}

} // namespace workload
} // namespace gpump
