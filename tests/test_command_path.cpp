/**
 * Tests of the command path: streams, hardware queues, dispatcher
 * gating, context synchronisation and the end-to-end kernel flow
 * through the framework (FCFS policy, single context).
 */

#include <gtest/gtest.h>

#include "gpu/gpu_context.hh"
#include "gpu/stream.hh"
#include "sim/logging.hh"
#include "tests/test_util.hh"

using namespace gpump;
using test::DeviceRig;

namespace {

/** 13-SM-filling kernel: 26 TBs at occupancy 2 -> one full wave. */
trace::KernelProfile
wideKernel(const char *name, int tbs, double tb_us)
{
    return test::makeProfile(name, tbs, tb_us, 30000, 0, 512);
}

} // namespace

TEST(CommandPath, SingleKernelRunsToCompletion)
{
    DeviceRig rig;
    auto *q = rig.queueFor(0);
    auto k = test::makeProfile("k", 26, 10.0); // occupancy >2, 1 wave
    bool completed = false;
    auto cmd = rig.pool.makeKernel(0, 0, &k);
    cmd->onComplete = [&] { completed = true; };
    rig.dispatcher.enqueue(q, cmd);
    rig.run();
    EXPECT_TRUE(completed);
    EXPECT_EQ(rig.framework.kernelsCompleted(), 1u);
    EXPECT_EQ(rig.framework.tbsCompleted(), 26u);
}

TEST(CommandPath, KernelTimingIsWavesTimesTbTime)
{
    DeviceRig rig;
    auto *q = rig.queueFor(0);
    // occupancy 2 (512 threads/TB? -> use wideKernel: 30000 regs ->
    // 65536/30000 = 2, threads 2048/512 = 4 -> occ 2).  52 TBs on
    // 13 SMs x 2 = 26 slots -> exactly 2 waves of 100 us.
    auto k = wideKernel("k", 52, 100.0);
    sim::SimTime done_at = -1;
    auto cmd = rig.pool.makeKernel(0, 0, &k);
    cmd->onComplete = [&] { done_at = rig.sim.now(); };
    rig.dispatcher.enqueue(q, cmd);
    rig.run();
    ASSERT_GE(done_at, 0);
    // Overheads: setup (1 us) + context load (0.5 us); waves 2x100 us.
    sim::SimTime expected = rig.params.smSetupLatency +
        rig.params.contextLoadLatency + sim::microseconds(200.0);
    EXPECT_EQ(done_at, expected);
}

TEST(CommandPath, SameQueueCommandsSerializeInOrder)
{
    DeviceRig rig;
    auto *q = rig.queueFor(0);
    auto k1 = test::makeProfile("k1", 13, 10.0);
    auto k2 = test::makeProfile("k2", 13, 10.0);
    std::vector<std::string> order;
    auto c1 = rig.pool.makeKernel(0, 0, &k1);
    c1->onComplete = [&] { order.push_back("k1"); };
    auto c2 = rig.pool.makeKernel(0, 0, &k2);
    c2->onComplete = [&] { order.push_back("k2"); };
    rig.dispatcher.enqueue(q, c1);
    rig.dispatcher.enqueue(q, c2);
    rig.run();
    EXPECT_EQ(order, (std::vector<std::string>{"k1", "k2"}));
}

TEST(CommandPath, StreamChargesSubmissionLatencyAndTracksContext)
{
    DeviceRig rig;
    gpu::GpuContext ctx(0, 0, 0);
    auto *q = rig.queueFor(0);
    gpu::Stream stream(rig.sim, ctx, rig.dispatcher, q,
                       rig.params.commandSubmitLatency);

    auto k = test::makeProfile("k", 13, 10.0);
    auto cmd = rig.pool.makeKernel(0, 0, &k);
    stream.enqueue(cmd);
    EXPECT_EQ(ctx.outstanding(), 1);

    bool synced = false;
    ctx.waitIdle([&] { synced = true; });
    EXPECT_FALSE(synced);

    rig.run();
    EXPECT_TRUE(synced);
    EXPECT_EQ(ctx.outstanding(), 0);
    // Submission latency delays arrival at the hardware queue.
    EXPECT_GE(cmd->enqueuedAt, rig.params.commandSubmitLatency);
}

TEST(CommandPath, WaitIdleOnIdleContextFiresImmediately)
{
    gpu::GpuContext ctx(0, 0, 0);
    bool fired = false;
    ctx.waitIdle([&] { fired = true; });
    EXPECT_TRUE(fired);
}

TEST(CommandPath, CommandsStampedWithArrivalSequence)
{
    DeviceRig rig;
    auto *q0 = rig.queueFor(0);
    auto *q1 = rig.queueFor(1);
    auto k = test::makeProfile("k", 1, 1.0);
    auto a = rig.launch(q0, &k);
    auto b = rig.launch(q1, &k);
    EXPECT_LT(a->seq, b->seq);
    rig.run();
}

TEST(CommandPath, QueueExhaustionIsFatal)
{
    DeviceRig rig;
    for (int i = 0; i < rig.params.numHwQueues; ++i)
        rig.queueFor(i);
    EXPECT_THROW(rig.queueFor(99), sim::FatalError);
}

TEST(CommandPath, TwoContextsSerializeUnderFcfs)
{
    DeviceRig rig;
    auto *q0 = rig.queueFor(0);
    auto *q1 = rig.queueFor(1);
    // Both kernels leave idle SMs (1 TB each) -- but FCFS must not
    // co-schedule two contexts on the engine.
    auto k1 = test::makeProfile("k1", 1, 50.0);
    auto k2 = test::makeProfile("k2", 1, 50.0);
    sim::SimTime start2 = -1, end1 = -1;

    class Obs : public core::EngineObserver
    {
      public:
        sim::SimTime *start2;
        sim::Simulation *sim;
        void kernelStarted(const gpu::KernelExec &k) override
        {
            if (k.profile().kernel == "k2")
                *start2 = sim->now();
        }
    } obs;
    obs.start2 = &start2;
    obs.sim = &rig.sim;
    rig.framework.addObserver(&obs);

    auto c1 = rig.pool.makeKernel(0, 0, &k1);
    c1->onComplete = [&] { end1 = rig.sim.now(); };
    rig.dispatcher.enqueue(q0, c1);
    auto c2 = rig.pool.makeKernel(1, 0, &k2);
    rig.dispatcher.enqueue(q1, c2);
    rig.run();

    ASSERT_GE(start2, 0);
    ASSERT_GE(end1, 0);
    EXPECT_GE(start2, end1)
        << "baseline engine must drain context 0 before context 1 runs";
}

TEST(CommandPath, EngineContextReflectsOccupancy)
{
    DeviceRig rig;
    EXPECT_EQ(rig.framework.engineContext(), sim::invalidContext);
    auto *q = rig.queueFor(7);
    auto k = test::makeProfile("k", 130, 100.0);
    rig.launch(q, &k);
    // Admission and SM assignment happen synchronously with the
    // enqueue (the hardware reacts within the same instant).
    EXPECT_EQ(rig.framework.engineContext(), 7);
    rig.run(sim::microseconds(20.0));
    EXPECT_EQ(rig.framework.engineContext(), 7)
        << "kernel still occupies the engine mid-execution";
    rig.run();
    EXPECT_EQ(rig.framework.engineContext(), sim::invalidContext);
}
