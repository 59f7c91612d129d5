/**
 * @file
 * Shared test fixtures: synthetic kernel profiles, a miniature device
 * rig (dispatcher + engines + framework) that tests drive by
 * enqueueing commands directly, without the workload layer, a helper
 * that captures a FatalError's message, and an arrival-trace writer.
 */

#ifndef GPUMP_TESTS_TEST_UTIL_HH
#define GPUMP_TESTS_TEST_UTIL_HH

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/framework.hh"
#include "core/policy.hh"
#include "core/preemption.hh"
#include "gpu/dispatcher.hh"
#include "gpu/transfer_engine.hh"
#include "memory/gpu_memory.hh"
#include "memory/pcie.hh"
#include "memory/residency.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"
#include "trace/kernel_profile.hh"

namespace gpump {
namespace test {

/** Run @p fn and return the text of the sim::FatalError it raises
 *  (a test failure, and "", when it raises none). */
template <typename Fn>
std::string
fatalMessageOf(Fn &&fn)
{
    try {
        fn();
    } catch (const sim::FatalError &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected sim::FatalError";
    return "";
}

/** Write @p arrivals_us as an arrival-trace file that
 *  serve::readArrivalTrace round-trips exactly (full double
 *  precision). */
inline void
writeArrivalTrace(const std::string &path,
                  const std::vector<double> &arrivals_us)
{
    std::filesystem::path p(path);
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path());
    std::ofstream out(path);
    out << "# arrival offsets, microseconds, one per line\n";
    char buf[64];
    for (double us : arrivals_us) {
        // %.17g round-trips every finite double exactly.
        std::snprintf(buf, sizeof buf, "%.17g\n", us);
        out << buf;
    }
    if (!out)
        ADD_FAILURE() << "failed writing arrival trace " << path;
}

/** A synthetic kernel profile with direct control of the knobs that
 *  matter to scheduling tests. */
inline trace::KernelProfile
makeProfile(const std::string &name, int num_tbs, double tb_us,
            int regs_per_tb = 4096, int shmem_per_tb = 0,
            int threads_per_tb = 128)
{
    trace::KernelProfile k;
    k.benchmark = "test";
    k.kernel = name;
    k.launches = 1;
    k.numThreadBlocks = num_tbs;
    k.timePerTbUs = tb_us;
    k.avgTimeUs = tb_us * num_tbs;
    k.sharedMemPerTb = shmem_per_tb;
    k.regsPerTb = regs_per_tb;
    k.threadsPerTb = threads_per_tb;
    return k;
}

/** A self-contained device: everything but processes.  It is wired
 *  as workload::System wires it, and every context queueFor() names
 *  is registered with the residency manager at footprint 0, so it is
 *  always resident. */
struct DeviceRig
{
    sim::Simulation sim;
    gpu::GpuParams params;
    memory::GpuMemory gmem;
    memory::PcieBus pcie;
    gpu::TransferEngine xfer;
    gpu::Dispatcher dispatcher;
    core::SchedulingFramework framework;
    memory::ResidencyManager residency;
    std::set<sim::ContextId> registered;

    explicit DeviceRig(const std::string &policy = "fcfs",
                       const std::string &mechanism = "context_switch",
                       sim::Config cfg = sim::Config(),
                       std::uint64_t seed = 1,
                       gpu::TransferEngine::Policy xfer_policy =
                           gpu::TransferEngine::Policy::Fcfs)
        : sim(seed, std::move(cfg)),
          params(gpu::GpuParams::fromConfig(sim.config())),
          gmem(sim.stats(),
               memory::GpuMemoryParams::fromConfig(sim.config())),
          pcie(sim.stats(), memory::PcieParams::fromConfig(sim.config())),
          xfer(sim, pcie, xfer_policy),
          dispatcher(sim, xfer),
          framework(sim, params, gmem, dispatcher),
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
        framework.setTransferEngine(&xfer);
        framework.setMechanism(
            core::makeMechanism(mechanism, sim.config()));
        residency.setPinQuery([this](sim::ContextId ctx) {
            return framework.contextPinned(ctx);
        });
        residency.setRemapNotifier([this](sim::ContextId ctx) {
            framework.onContextRemapped(ctx);
        });
        framework.setResidency(&residency);
        framework.setPolicy(core::makePolicy(policy, sim.config()));
    }

    /** Create a hardware queue for a context; a context's first queue
     *  registers it with the residency manager. */
    gpu::CommandQueue *queueFor(sim::ContextId ctx)
    {
        if (registered.insert(ctx).second)
            residency.registerContext(ctx, /*priority=*/0, /*footprint=*/0);
        return dispatcher.createQueue(ctx, params.numHwQueues);
    }

    /** Enqueue a kernel command now; returns the command. */
    gpu::CommandPtr
    launch(gpu::CommandQueue *q, const trace::KernelProfile *profile,
           int priority = 0)
    {
        auto cmd = gpu::Command::makeKernel(q->ctx(), priority, profile);
        dispatcher.enqueue(q, cmd);
        return cmd;
    }

    /** Run the event loop to completion (or a time limit). */
    sim::SimTime run(sim::SimTime limit = sim::maxTime)
    {
        return sim.run(limit);
    }
};

} // namespace test
} // namespace gpump

#endif // GPUMP_TESTS_TEST_UTIL_HH
