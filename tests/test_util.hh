/**
 * @file
 * Shared test fixtures: synthetic kernel profiles, a miniature device
 * rig (dispatcher + engines + framework) that tests drive by
 * enqueueing commands directly, without the workload layer, and a
 * helper that captures a FatalError's message.
 */

#ifndef GPUMP_TESTS_TEST_UTIL_HH
#define GPUMP_TESTS_TEST_UTIL_HH

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/framework.hh"
#include "core/policy.hh"
#include "core/preemption.hh"
#include "gpu/dispatcher.hh"
#include "gpu/transfer_engine.hh"
#include "memory/gpu_memory.hh"
#include "memory/pcie.hh"
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

/** A self-contained device: everything but processes. */
struct DeviceRig
{
    sim::Simulation sim;
    gpu::GpuParams params;
    memory::GpuMemory gmem;
    memory::PcieBus pcie;
    gpu::TransferEngine xfer;
    gpu::Dispatcher dispatcher;
    core::SchedulingFramework framework;

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
          framework(sim, params, gmem, dispatcher)
    {
        xfer.setCompletionNotifier([this](gpu::CommandQueue *q) {
            dispatcher.onCommandCompleted(q);
        });
        framework.setTransferEngine(&xfer);
        framework.setMechanism(
            core::makeMechanism(mechanism, sim.config()));
        framework.setPolicy(core::makePolicy(policy, sim.config()));
    }

    /** Create a hardware queue for a context. */
    gpu::CommandQueue *queueFor(sim::ContextId ctx)
    {
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
