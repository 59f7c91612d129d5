/**
 * Tests of the contended-switch model (gmem.contended_switch):
 * context save/restore bytes ride the transfer engine as driver-
 * originated commands, so preemption latency includes PCIe queueing;
 * plus the proactive_mem mechanism built on top of it, the per-SM
 * context-load charge, and the byte-identity guard for the default
 * (off) configuration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/proactive_mem.hh"
#include "sim/logging.hh"
#include "tests/test_util.hh"
#include "workload/system.hh"

using namespace gpump;
using test::DeviceRig;

namespace {

sim::Config
contendedConfig()
{
    sim::Config cfg;
    cfg.set("gmem.contended_switch", true);
    return cfg;
}

/** Records the first preemption request time and per-SM latencies. */
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

TEST(ContendedSwitch, SavesSerializeOnTheTransferEngine)
{
    // Under the share model every SM saves in parallel at its
    // bandwidth share (SaveLatencyMatchesContextSize).  Under the
    // contended model each SM's save is one transfer command on an
    // engine that moves one transfer at a time, so thirteen
    // simultaneous preemptions complete in a staircase: SM i waits
    // for i earlier saves.
    DeviceRig rig("ppq_excl", "context_switch", contendedConfig());
    PreemptionProbe probe;
    probe.sim = &rig.sim;
    rig.framework.addObserver(&probe);

    // Occupancy 4 (512 threads/TB), 16 KiB of regs per TB ->
    // 64 KiB of context per SM.
    // Occupancy 4 (512 threads/TB), 16 KiB of regs per TB ->
    // 64 KiB of context per SM; hi at occupancy 1 (2048 threads/TB)
    // with 13 TBs needs every SM.
    auto lo = test::makeProfile("lo", 2000, 1000.0, 4096, 0, 512);
    auto hi = test::makeProfile("hi", 13, 1.0, 4096, 0, 2048);
    rig.launch(rig.queueFor(0), &lo, 0);
    rig.run(sim::microseconds(100.0));
    rig.launch(rig.queueFor(1), &hi, 9);
    rig.run();

    const std::int64_t bytes = 4 * 4096 * 4;
    const sim::SimTime drain = rig.params.pipelineDrainLatency;
    const sim::SimTime per_save = rig.pcie.transferDuration(bytes);
    ASSERT_EQ(probe.latencies.size(),
              static_cast<std::size_t>(rig.params.numSms));
    EXPECT_TRUE(std::is_sorted(probe.latencies.begin(),
                               probe.latencies.end()));
    for (std::size_t i = 0; i < probe.latencies.size(); ++i)
        EXPECT_EQ(probe.latencies[i],
                  drain + static_cast<sim::SimTime>(i + 1) * per_save)
            << "save " << i << " must queue behind the earlier saves";
}

TEST(ContendedSwitch, SaveQueuesBehindWorkloadCopy)
{
    // A big application memcpy in flight when the preemption lands
    // must delay the save: that queueing is the whole point of the
    // contended model (the share model would ignore it entirely).
    DeviceRig rig("ppq_excl", "context_switch", contendedConfig());
    PreemptionProbe probe;
    probe.sim = &rig.sim;
    rig.framework.addObserver(&probe);

    auto lo = test::makeProfile("lo", 2000, 1000.0, 4096, 0, 512);
    auto hi = test::makeProfile("hi", 13, 1.0, 4096, 0, 2048);
    rig.launch(rig.queueFor(0), &lo, 0);
    rig.run(sim::microseconds(100.0));

    const std::int64_t copy_bytes = 8ll << 20;
    auto copy = rig.pool.makeMemcpy(
        2, 0, gpu::Command::Kind::MemcpyH2D, copy_bytes);
    rig.dispatcher.enqueue(rig.queueFor(2), copy);
    rig.launch(rig.queueFor(1), &hi, 9);
    rig.run();

    // The copy starts the instant it is enqueued (idle engine) and
    // the preemption is requested at the same instant, so the first
    // save begins exactly when the copy finishes.
    const std::int64_t bytes = 4 * 4096 * 4;
    const sim::SimTime copy_time = rig.pcie.transferDuration(copy_bytes);
    const sim::SimTime per_save = rig.pcie.transferDuration(bytes);
    ASSERT_EQ(probe.latencies.size(),
              static_cast<std::size_t>(rig.params.numSms));
    for (std::size_t i = 0; i < probe.latencies.size(); ++i)
        EXPECT_EQ(probe.latencies[i],
                  copy_time +
                      static_cast<sim::SimTime>(i + 1) * per_save);
}

TEST(ContendedSwitch, PreemptedWorkResumesViaRestoreFetches)
{
    DeviceRig rig("ppq_excl", "context_switch", contendedConfig());
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
        << "every preempted TB must complete exactly once under the "
           "contended model too";
    EXPECT_EQ(rig.framework.kernelsCompleted(), 2u);
    EXPECT_GT(rig.framework.tbsPrefetched(), 0u)
        << "preempted TBs re-issue only after their restore fetch "
           "lands";
    // Saves + restore fetches all ride the engine as driver commands.
    EXPECT_GT(rig.framework.contextTransfers(),
              rig.framework.preemptions())
        << "expected one save per preemption plus restore fetches";
}

TEST(ProactiveMem, StagesRestoresForTheReservationTarget)
{
    // Round-robin time slicing between two long kernels: from the
    // second rotation on, the reservation target has a non-empty
    // PTBQ, so the mechanism must stage restore fetches ahead of the
    // switch (share model here; the contended variant is below).
    DeviceRig rig("tmux", "proactive_mem");
    auto a = test::makeProfile("a", 2000, 50.0);
    auto b = test::makeProfile("b", 2000, 50.0);
    rig.launch(rig.queueFor(0), &a, 0);
    rig.launch(rig.queueFor(1), &b, 0);
    rig.run();

    EXPECT_EQ(rig.framework.kernelsCompleted(), 2u);
    auto &mech = dynamic_cast<core::ProactiveMemMechanism &>(
        rig.framework.mechanism());
    EXPECT_GT(mech.prefetchesIssued(), 0u)
        << "rotations after the first must find preempted TBs to "
           "stage";
    EXPECT_GT(mech.tbsStaged(), 0u);
    EXPECT_LE(mech.prefetchesIssued() + mech.prefetchesSkipped(),
              rig.framework.preemptions())
        << "each preemption takes at most one staging decision";
    EXPECT_GT(rig.framework.tbsPrefetched(), 0u);
}

TEST(ProactiveMem, WorksUnderTheContendedModel)
{
    DeviceRig rig("tmux", "proactive_mem", contendedConfig());
    auto a = test::makeProfile("a", 2000, 50.0);
    auto b = test::makeProfile("b", 2000, 50.0);
    rig.launch(rig.queueFor(0), &a, 0);
    rig.launch(rig.queueFor(1), &b, 0);
    rig.run();

    EXPECT_EQ(rig.framework.kernelsCompleted(), 2u);
    auto &mech = dynamic_cast<core::ProactiveMemMechanism &>(
        rig.framework.mechanism());
    EXPECT_GT(mech.prefetchesIssued(), 0u);
    EXPECT_GT(rig.framework.contextTransfers(), 0u)
        << "prefetches must be real transfer commands when contended";
}

TEST(ProactiveMem, UnknownTunableIsRejectedWithSuggestion)
{
    sim::Config cfg;
    cfg.set("proactive_mem.lookahed", static_cast<std::int64_t>(8));
    std::string msg;
    try {
        core::makeMechanism("proactive_mem", cfg);
        ADD_FAILURE() << "expected sim::FatalError";
    } catch (const sim::FatalError &e) {
        msg = e.what();
    }
    EXPECT_NE(msg.find("proactive_mem.lookahed"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("proactive_mem.lookahead"), std::string::npos)
        << "the near-miss key should be suggested: " << msg;
}

TEST(ProactiveMem, NonPositiveLookaheadIsFatal)
{
    sim::Config cfg;
    cfg.set("proactive_mem.lookahead", static_cast<std::int64_t>(0));
    EXPECT_THROW(core::makeMechanism("proactive_mem", cfg),
                 sim::FatalError);
}

TEST(ContextLoad, ChargedOnContextChangeAndAfterEviction)
{
    // One 13-TB kernel at a time on an idle device, so each kernel
    // takes exactly its setup, any context load, and one 10 us TB.
    // An SM keeps its loaded context across kernels until that
    // context is evicted (onContextRemapped), which forces the load
    // again on the context's next assignment.
    DeviceRig rig;
    gpu::CommandQueue *queues[] = {rig.queueFor(0), rig.queueFor(1)};
    auto k = test::makeProfile("k", 13, 10.0);
    auto kernelTime = [&](sim::ContextId ctx) {
        const sim::SimTime start = rig.sim.now();
        sim::SimTime end = -1;
        auto cmd = rig.pool.makeKernel(ctx, 0, &k);
        cmd->onComplete = [&] { end = rig.sim.now(); };
        rig.dispatcher.enqueue(queues[ctx], cmd);
        rig.run();
        return end - start;
    };
    const sim::SimTime plain =
        rig.params.smSetupLatency + sim::microseconds(10.0);
    const sim::SimTime loaded = plain + rig.params.contextLoadLatency;

    EXPECT_EQ(kernelTime(0), loaded) << "first load of ctx 0";
    EXPECT_EQ(kernelTime(0), plain) << "ctx 0 still loaded";
    EXPECT_EQ(kernelTime(1), loaded) << "context change to ctx 1";
    rig.framework.onContextRemapped(0);
    EXPECT_EQ(kernelTime(1), plain)
        << "evicting another context leaves ctx 1 loaded";
    rig.framework.onContextRemapped(1);
    EXPECT_EQ(kernelTime(1), loaded)
        << "an evicted context pays the load on its next assignment";
}

TEST(ContendedSwitch, DefaultOffIsIdenticalToExplicitOff)
{
    // The tunable defaults to off and off must be indistinguishable
    // from the seed model: same schedule, same event count, same
    // metrics.  This is the in-tree tripwire for the golden-file
    // byte-identity requirement.
    workload::SystemSpec spec;
    spec.benchmarks = {"sgemm", "histo", "spmv"};
    spec.priorities = {2, 0, 1};
    spec.policy = "ppq_excl";
    spec.minReplays = 2;

    auto a = workload::System(spec).run();
    sim::Config off;
    off.set("gmem.contended_switch", false);
    auto b = workload::System(spec, off).run();

    EXPECT_EQ(a.endTime, b.endTime);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.preemptions, b.preemptions);
    ASSERT_EQ(a.meanTurnaroundUs.size(), b.meanTurnaroundUs.size());
    for (std::size_t i = 0; i < a.meanTurnaroundUs.size(); ++i)
        EXPECT_EQ(a.meanTurnaroundUs[i], b.meanTurnaroundUs[i])
            << "process " << i;

    ASSERT_GT(a.preemptions, 0u)
        << "the workload must actually preempt, or this guard "
           "proves nothing";
    // And the contended model must actually change the schedule —
    // otherwise the tunable is dead code.
    sim::Config on;
    on.set("gmem.contended_switch", true);
    auto c = workload::System(spec, on).run();
    EXPECT_TRUE(c.endTime != a.endTime ||
                c.eventsExecuted != a.eventsExecuted)
        << "gmem.contended_switch=1 changed nothing";
}
