/**
 * Tests of the two preemption mechanisms (Section 3.2): latency
 * models, state handling and the PTBQ round trip.
 */

#include <gtest/gtest.h>

#include <utility>

#include "core/adaptive.hh"
#include "core/context_switch.hh"
#include "core/draining.hh"
#include "sim/logging.hh"
#include "tests/test_util.hh"
#include "workload/system.hh"

using namespace gpump;
using test::DeviceRig;

namespace {

/**
 * Launch a long low-priority kernel, let it occupy the engine, then
 * launch a high-priority kernel under PPQ to force preemption of all
 * SMs.  Returns the observed per-SM preemption latencies.
 */
struct PreemptionProbe : core::EngineObserver
{
    sim::Simulation *sim = nullptr;
    sim::SimTime requestAt = -1;
    std::vector<sim::SimTime> latencies;

    void preemptionRequested(const gpu::Sm &, const gpu::KernelExec &,
                             const gpu::KernelExec &) override
    {
        if (requestAt < 0)
            requestAt = sim->now();
    }
    void preemptionCompleted(const gpu::Sm &) override
    {
        latencies.push_back(sim->now() - requestAt);
    }
};

} // namespace

TEST(ContextSwitch, SaveLatencyMatchesContextSize)
{
    DeviceRig rig("ppq_excl", "context_switch");
    PreemptionProbe probe;
    probe.sim = &rig.sim;
    rig.framework.addObserver(&probe);

    // lo: occupancy 4 (512 threads/TB), 16 KiB of regs per TB ->
    // context = 4 TBs * 4096 regs * 4 B = 64 KiB per SM.
    auto lo = test::makeProfile("lo", 2000, 1000.0, 4096, 0, 512);
    auto hi = test::makeProfile("hi", 13, 1.0);
    rig.launch(rig.queueFor(0), &lo, 0);
    rig.run(sim::microseconds(100.0));
    rig.launch(rig.queueFor(1), &hi, 9);
    rig.run();

    ASSERT_FALSE(probe.latencies.empty());
    // Expected: pipeline drain (0.5 us) + 65536 B / 16 GB/s = 4.096 us.
    sim::SimTime expected = rig.params.pipelineDrainLatency +
        rig.gmem.moveTime(4 * 4096 * 4, rig.params.numSms);
    for (sim::SimTime lat : probe.latencies)
        EXPECT_EQ(lat, expected);
}

TEST(ContextSwitch, SavedBytesAccounted)
{
    DeviceRig rig("ppq_excl", "context_switch");
    auto lo = test::makeProfile("lo", 2000, 1000.0, 4096, 256, 512);
    // hi at occupancy 1 (2048 threads/TB) with 13 TBs needs all SMs.
    auto hi = test::makeProfile("hi", 13, 1.0, 4096, 0, 2048);
    rig.launch(rig.queueFor(0), &lo, 0);
    rig.run(sim::microseconds(100.0));
    ASSERT_EQ(rig.framework.preemptions(), 0u);
    rig.launch(rig.queueFor(1), &hi, 9);
    rig.run();

    EXPECT_EQ(rig.framework.preemptions(), 13u)
        << "PPQ must preempt every SM of the low-priority kernel";
    // 13 SMs x 4 TBs x (4*4096 + 256) B.
    EXPECT_DOUBLE_EQ(rig.framework.contextBytesSaved(),
                     13.0 * 4.0 * (4.0 * 4096.0 + 256.0));
    EXPECT_EQ(rig.framework.kernelsCompleted(), 2u);
}

TEST(ContextSwitch, PreemptedWorkResumesAndCompletes)
{
    DeviceRig rig("ppq_excl", "context_switch");
    auto lo = test::makeProfile("lo", 100, 200.0);
    auto hi = test::makeProfile("hi", 26, 50.0);
    bool lo_done = false;
    auto lo_cmd = rig.pool.makeKernel(0, 0, &lo);
    lo_cmd->onComplete = [&] { lo_done = true; };
    rig.dispatcher.enqueue(rig.queueFor(0), lo_cmd);
    rig.run(sim::microseconds(50.0));
    rig.launch(rig.queueFor(1), &hi, 5);
    rig.run();
    EXPECT_TRUE(lo_done);
    EXPECT_EQ(rig.framework.tbsCompleted(), 126u)
        << "every preempted TB must eventually complete exactly once";
}

TEST(ContextSwitch, RemainingWorkIsPreservedNotRestarted)
{
    // A TB preempted near its end must finish after (restore +
    // remainder), not after a full re-execution.
    DeviceRig rig("ppq_excl", "context_switch");
    // One TB per SM (threads 2048): 13 TBs of 100 us.
    auto lo = test::makeProfile("lo", 13, 100.0, 4096, 0, 2048);
    auto hi = test::makeProfile("hi", 13, 1.0, 4096, 0, 2048);

    sim::SimTime lo_end = -1;
    auto lo_cmd = rig.pool.makeKernel(0, 0, &lo);
    lo_cmd->onComplete = [&] { lo_end = rig.sim.now(); };
    rig.dispatcher.enqueue(rig.queueFor(0), lo_cmd);
    // Preempt at t=80us: 20us of work remains per TB.
    rig.run(sim::microseconds(80.0));
    rig.launch(rig.queueFor(1), &hi, 5);
    rig.run();

    ASSERT_GT(lo_end, 0);
    // Generous upper bound: far below a full 100 us re-execution on
    // top of the preemption round trip.
    EXPECT_LT(lo_end, sim::microseconds(80.0 + 1.0 + 10.0 + 2.0 + 5.0 +
                                        20.0 + 30.0))
        << "preempted TBs appear to restart from scratch";
}

TEST(Draining, LatencyBoundedByResidentRemainder)
{
    DeviceRig rig("ppq_excl", "draining");
    PreemptionProbe probe;
    probe.sim = &rig.sim;
    rig.framework.addObserver(&probe);

    auto lo = test::makeProfile("lo", 2000, 50.0);
    auto hi = test::makeProfile("hi", 13, 1.0);
    rig.launch(rig.queueFor(0), &lo, 0);
    rig.run(sim::microseconds(10.0));
    rig.launch(rig.queueFor(1), &hi, 9);
    rig.run();

    ASSERT_FALSE(probe.latencies.empty());
    for (sim::SimTime lat : probe.latencies) {
        EXPECT_LE(lat, sim::microseconds(50.0))
            << "drain cannot exceed the longest resident TB remainder";
        EXPECT_GT(lat, 0);
    }
}

TEST(Draining, NoContextTrafficAndNoPtbq)
{
    DeviceRig rig("ppq_excl", "draining");
    auto lo = test::makeProfile("lo", 2000, 50.0);
    auto hi = test::makeProfile("hi", 13, 1.0);
    rig.launch(rig.queueFor(0), &lo, 0);
    rig.run(sim::microseconds(10.0));
    rig.launch(rig.queueFor(1), &hi, 9);
    rig.run(sim::microseconds(200.0));

    EXPECT_GT(rig.framework.preemptions(), 0u);
    EXPECT_DOUBLE_EQ(rig.framework.contextBytesSaved(), 0.0)
        << "draining must not move any context bytes";
    rig.run();
}

TEST(Draining, DrainedTbsRunExactlyOnce)
{
    DeviceRig rig("ppq_excl", "draining");
    auto lo = test::makeProfile("lo", 100, 60.0);
    auto hi = test::makeProfile("hi", 26, 20.0);
    rig.launch(rig.queueFor(0), &lo, 0);
    rig.run(sim::microseconds(30.0));
    rig.launch(rig.queueFor(1), &hi, 5);
    rig.run();
    EXPECT_EQ(rig.framework.tbsCompleted(), 126u);
    EXPECT_EQ(rig.framework.kernelsCompleted(), 2u);
}

TEST(Mechanisms, FactoryBuildsTheNamedMechanism)
{
    auto built = [](const char *name) { return core::makeMechanism(name); };
    EXPECT_NE(dynamic_cast<core::ContextSwitchMechanism *>(
                  built("context_switch").get()),
              nullptr);
    EXPECT_NE(dynamic_cast<core::DrainingMechanism *>(
                  built("draining").get()),
              nullptr);
    EXPECT_NE(dynamic_cast<core::AdaptiveMechanism *>(
                  built("adaptive").get()),
              nullptr);
    EXPECT_THROW(core::makeMechanism("bogus"), sim::FatalError);
}

namespace {

/** Install an AdaptiveMechanism on a rig, keeping a typed handle. */
core::AdaptiveMechanism *
installAdaptive(DeviceRig &rig, double bias)
{
    auto mech = std::make_unique<core::AdaptiveMechanism>(bias);
    core::AdaptiveMechanism *raw = mech.get();
    rig.framework.setMechanism(std::move(mech));
    return raw;
}

} // namespace

TEST(Adaptive, DrainsWhenResidentRemainderIsCheap)
{
    DeviceRig rig("ppq_excl", "context_switch");
    core::AdaptiveMechanism *mech = installAdaptive(rig, 1.0);

    // Short TBs (2 us) with a fat context: 16 TBs/SM x 16 KiB = 256
    // KiB per SM -> modeled save ~16.5 us.  Draining (<= 2 us) wins.
    auto lo = test::makeProfile("lo", 2000, 2.0, 4096, 0, 128);
    auto hi = test::makeProfile("hi", 13, 1.0);
    rig.launch(rig.queueFor(0), &lo, 0);
    rig.run(sim::microseconds(10.0));
    rig.launch(rig.queueFor(1), &hi, 9);
    rig.run();

    EXPECT_GT(mech->drainsChosen(), 0u);
    EXPECT_EQ(mech->switchesChosen(), 0u);
    EXPECT_DOUBLE_EQ(rig.framework.contextBytesSaved(), 0.0)
        << "cheap drains must not move context bytes";
    EXPECT_EQ(rig.framework.kernelsCompleted(), 2u);
}

TEST(Adaptive, SwitchesWhenDrainingWouldStall)
{
    DeviceRig rig("ppq_excl", "context_switch");
    core::AdaptiveMechanism *mech = installAdaptive(rig, 1.0);

    // Long TBs (1000 us) with a slim context: 4 TBs/SM x 16 KiB = 64
    // KiB per SM -> modeled save ~4.6 us.  Context switch wins.
    auto lo = test::makeProfile("lo", 2000, 1000.0, 4096, 0, 512);
    auto hi = test::makeProfile("hi", 13, 1.0);
    rig.launch(rig.queueFor(0), &lo, 0);
    rig.run(sim::microseconds(100.0));
    rig.launch(rig.queueFor(1), &hi, 9);
    rig.run(sim::milliseconds(20.0));

    EXPECT_GT(mech->switchesChosen(), 0u);
    EXPECT_EQ(mech->drainsChosen(), 0u);
    EXPECT_GT(rig.framework.contextBytesSaved(), 0.0);
}

TEST(Adaptive, BiasSkewsTheDecision)
{
    // Same workload, two biases: bias 0 can only drain when the SM is
    // already at a block boundary (estimate 0), so it context-switches
    // here; a huge bias always drains.
    auto run_with = [](double bias) {
        DeviceRig rig("ppq_excl", "context_switch");
        core::AdaptiveMechanism *mech = installAdaptive(rig, bias);
        auto lo = test::makeProfile("lo", 2000, 50.0);
        auto hi = test::makeProfile("hi", 13, 1.0);
        rig.launch(rig.queueFor(0), &lo, 0);
        rig.run(sim::microseconds(10.0));
        rig.launch(rig.queueFor(1), &hi, 9);
        rig.run(sim::milliseconds(10.0));
        return std::make_pair(mech->drainsChosen(),
                              mech->switchesChosen());
    };
    auto [drains0, switches0] = run_with(0.0);
    EXPECT_EQ(drains0, 0u);
    EXPECT_GT(switches0, 0u);
    auto [drainsInf, switchesInf] = run_with(1e12);
    EXPECT_GT(drainsInf, 0u);
    EXPECT_EQ(switchesInf, 0u);
}

TEST(Adaptive, ContendedSaveEstimateCountsTransferBacklog)
{
    // Under gmem.contended_switch the real save rides the transfer
    // engine behind whatever is already queued, so the drain-vs-switch
    // comparison must price that backlog in.  Same workload twice:
    // long TBs (drain estimate ~900 us) that adaptive would normally
    // context-switch away (save ~ one small transfer), except that a
    // 32 MiB application copy occupies the engine, pushing the true
    // save cost past the drain estimate.  A backlog-blind estimate
    // (the pre-queue-aware model) picks the switch and then stalls
    // behind the copy anyway.
    auto run_with = [](std::int64_t copy_bytes) {
        sim::Config cfg;
        cfg.set("gmem.contended_switch", true);
        DeviceRig rig("ppq_excl", "context_switch", cfg);
        core::AdaptiveMechanism *mech = installAdaptive(rig, 1.0);
        auto lo = test::makeProfile("lo", 2000, 1000.0, 4096, 0, 512);
        auto hi = test::makeProfile("hi", 13, 1.0, 4096, 0, 2048);
        rig.launch(rig.queueFor(0), &lo, 0);
        rig.run(sim::microseconds(100.0));
        if (copy_bytes > 0) {
            auto copy = rig.pool.makeMemcpy(
                2, 0, gpu::Command::Kind::MemcpyH2D, copy_bytes);
            rig.dispatcher.enqueue(rig.queueFor(2), copy);
        }
        rig.launch(rig.queueFor(1), &hi, 9);
        rig.run(sim::milliseconds(50.0));
        return std::make_pair(mech->drainsChosen(),
                              mech->switchesChosen());
    };

    auto [drains_idle, switches_idle] = run_with(0);
    EXPECT_EQ(drains_idle, 0u) << "idle engine: the switch stays cheap";
    EXPECT_GT(switches_idle, 0u);

    auto [drains_busy, switches_busy] = run_with(32ll << 20);
    EXPECT_GT(drains_busy, 0u)
        << "a queued 32 MiB copy must make draining the cheaper choice";
    EXPECT_EQ(switches_busy, 0u);
}

TEST(Adaptive, EndToEndThroughSystemSpec)
{
    // The mechanism resolves by name through the full workload stack
    // and finishes a real multiprogrammed run.
    workload::SystemSpec spec;
    spec.benchmarks = {"sgemm", "mri-q"};
    spec.priorities = {0, 5};
    spec.policy = "ppq_shared";
    spec.mechanism = "adaptive";
    spec.minReplays = 2;
    workload::System system(spec);
    auto result = system.run(sim::seconds(60.0));
    for (const auto &runs : result.runs)
        EXPECT_GE(runs.size(), 2u);
}

TEST(Mechanisms, ContextSwitchBeatsDrainingForLongTbs)
{
    // The paper's central comparison: for kernels with long thread
    // blocks, context switch preempts faster than draining.
    auto run_with = [](const std::string &mech) {
        DeviceRig rig("ppq_excl", mech);
        PreemptionProbe probe;
        probe.sim = &rig.sim;
        rig.framework.addObserver(&probe);
        // sgemm-like: 98.56 us TBs, low register use.
        auto lo = test::makeProfile("lo", 2000, 98.56, 4480, 512, 128);
        auto hi = test::makeProfile("hi", 13, 1.0);
        rig.launch(rig.queueFor(0), &lo, 0);
        rig.run(sim::microseconds(5.0));
        rig.launch(rig.queueFor(1), &hi, 9);
        rig.run(sim::milliseconds(5.0));
        double sum = 0;
        for (auto l : probe.latencies)
            sum += static_cast<double>(l);
        return probe.latencies.empty()
            ? 1e18
            : sum / static_cast<double>(probe.latencies.size());
    };
    double cs = run_with("context_switch");
    double drain = run_with("draining");
    EXPECT_LT(cs, drain)
        << "context switch must preempt long-TB kernels faster";
}
