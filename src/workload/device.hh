/**
 * @file
 * Device: the paper's Section 3 machine, wired in one place — the
 * command dispatcher, the transfer engine on the PCIe bus and the
 * execution engine's scheduling framework over the SMs, plus the
 * residency manager and the pool every command is drawn from.
 * workload::System builds one around its host and processes; tests
 * and the examples that place kernels by hand build one directly.
 */

#ifndef GPUMP_WORKLOAD_DEVICE_HH
#define GPUMP_WORKLOAD_DEVICE_HH

#include <cstdint>
#include <string>

#include "core/framework.hh"
#include "gpu/command.hh"
#include "gpu/dispatcher.hh"
#include "gpu/gpu_config.hh"
#include "gpu/transfer_engine.hh"
#include "memory/gpu_memory.hh"
#include "memory/pcie.hh"
#include "memory/residency.hh"
#include "sim/config.hh"
#include "sim/simulation.hh"

namespace gpump {
namespace workload {

/**
 * Raise fatal() on any key of @p cfg that no scheme claims and nothing
 * read, naming the nearest key that was read.  Call it once every
 * reader of @p cfg has run: a key none of them read is a typo that
 * would otherwise run the default machine.  (Claimed keys were checked
 * against their scheme's declared tunables when it was made.)
 */
void rejectUnreadKeys(const sim::Config &cfg);

/** One assembled device: everything but the host and its processes. */
struct Device
{
    /**
     * Wire the device, then run rejectUnreadKeys on @p cfg: a caller's
     * own keys must be read before (a copied Config keeps its record).
     *
     * @param policy    any core::policyRegistry() name.
     * @param mechanism any core::mechanismRegistry() name.
     * @param processes process count handed to the policy's
     *                  assemblyDefaults hook; 0 means none.
     */
    explicit Device(const std::string &policy = "fcfs",
                    const std::string &mechanism = "context_switch",
                    sim::Config cfg = sim::Config(),
                    std::uint64_t seed = 1,
                    gpu::TransferEngine::Policy xfer_policy =
                        gpu::TransferEngine::Policy::Fcfs,
                    int processes = 0);

    Device(const Device &) = delete;
    Device &operator=(const Device &) = delete;

    /** Register context @p ctx with the residency manager at
     *  @p footprint device bytes and return a new hardware queue for
     *  it. */
    gpu::CommandQueue *addContext(sim::ContextId ctx, int priority,
                                  std::int64_t footprint);

    /** Declared first, so it is destroyed last: the pool must outlive
     *  every command, and every component below can hold one. */
    gpu::CommandPool pool;
    sim::Simulation sim;
    gpu::GpuParams params;
    memory::GpuMemory gmem;
    memory::PcieBus pcie;
    gpu::TransferEngine xfer;
    gpu::Dispatcher dispatcher;
    core::SchedulingFramework framework;
    /** Declared after the framework: its callbacks point into the
     *  framework and must be torn down first. */
    memory::ResidencyManager residency;
};

} // namespace workload
} // namespace gpump

#endif // GPUMP_WORKLOAD_DEVICE_HH
