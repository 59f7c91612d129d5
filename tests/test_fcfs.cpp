/** Tests of the baseline FCFS policy (Section 2.3 semantics). */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/logging.hh"
#include "tests/test_util.hh"

using namespace gpump;
using test::DeviceRig;

namespace {

/** Records kernel start/finish order with timestamps. */
struct OrderProbe : core::EngineObserver
{
    sim::Simulation *sim = nullptr;
    std::vector<std::pair<std::string, sim::SimTime>> starts;
    std::vector<std::pair<std::string, sim::SimTime>> finishes;

    void kernelStarted(const gpu::KernelExec &k) override
    {
        starts.emplace_back(k.profile().kernel, sim->now());
    }
    void kernelFinished(const gpu::KernelExec &k, sim::SimTime now) override
    {
        finishes.emplace_back(k.profile().kernel, now);
    }
};

} // namespace

TEST(Fcfs, ArrivalOrderAcrossContexts)
{
    DeviceRig rig("fcfs", "context_switch");
    OrderProbe probe;
    probe.sim = &rig.sim;
    rig.framework.addObserver(&probe);

    auto k1 = test::makeProfile("k1", 260, 50.0);
    auto k2 = test::makeProfile("k2", 26, 10.0);
    auto k3 = test::makeProfile("k3", 26, 10.0);
    rig.launch(rig.queueFor(0), &k1);
    rig.launch(rig.queueFor(1), &k2);
    rig.launch(rig.queueFor(2), &k3);
    rig.run();

    ASSERT_EQ(probe.starts.size(), 3u);
    EXPECT_EQ(probe.starts[0].first, "k1");
    EXPECT_EQ(probe.starts[1].first, "k2");
    EXPECT_EQ(probe.starts[2].first, "k3");
    // Strict serialization across contexts: each successor starts
    // only after the predecessor's last TB finished.
    EXPECT_GE(probe.starts[1].second, probe.finishes[0].second);
    EXPECT_GE(probe.starts[2].second, probe.finishes[1].second);
}

TEST(Fcfs, NeverPreempts)
{
    DeviceRig rig("fcfs", "context_switch");
    auto k1 = test::makeProfile("k1", 130, 20.0);
    auto k2 = test::makeProfile("k2", 13, 5.0);
    rig.launch(rig.queueFor(0), &k1, /*priority=*/0);
    rig.launch(rig.queueFor(1), &k2, /*priority=*/99);
    rig.run();
    EXPECT_EQ(rig.framework.preemptions(), 0u)
        << "FCFS ignores priorities and never preempts";
}

TEST(Fcfs, PriorityDoesNotReorder)
{
    DeviceRig rig("fcfs", "context_switch");
    OrderProbe probe;
    probe.sim = &rig.sim;
    rig.framework.addObserver(&probe);
    auto k1 = test::makeProfile("k1", 130, 20.0);
    auto k2 = test::makeProfile("k2", 13, 5.0);
    rig.launch(rig.queueFor(0), &k1, 0);
    rig.launch(rig.queueFor(1), &k2, 99);
    rig.run();
    ASSERT_EQ(probe.starts.size(), 2u);
    EXPECT_EQ(probe.starts[0].first, "k1")
        << "Figure 2a: the high-priority kernel must wait its turn";
}

TEST(Fcfs, BackToBackWithinContext)
{
    // Independent kernels of the same context may run concurrently
    // on free SMs (Section 2.3 back-to-back execution).  Two small
    // kernels from different queues of one context:
    DeviceRig rig("fcfs", "context_switch");
    OrderProbe probe;
    probe.sim = &rig.sim;
    rig.framework.addObserver(&probe);

    auto k1 = test::makeProfile("k1", 6 * 16, 100.0); // 6 SMs
    auto k2 = test::makeProfile("k2", 4 * 16, 100.0); // 4 SMs
    rig.launch(rig.queueFor(0), &k1);
    auto *q0b = rig.dispatcher.createQueue(0, rig.params.numHwQueues);
    rig.launch(q0b, &k2);
    rig.run();

    ASSERT_EQ(probe.starts.size(), 2u);
    // k2 starts while k1 is still running: same context co-residency.
    EXPECT_LT(probe.starts[1].second, probe.finishes[0].second);
}

TEST(Fcfs, HeadOfLineBlocksOtherContextEvenWithIdleSms)
{
    // k1 leaves 10 SMs idle, but k2 (other context) must still wait:
    // the baseline engine hosts one context at a time.
    DeviceRig rig("fcfs", "context_switch");
    OrderProbe probe;
    probe.sim = &rig.sim;
    rig.framework.addObserver(&probe);

    auto k1 = test::makeProfile("k1", 3 * 16, 100.0); // 3 SMs
    auto k2 = test::makeProfile("k2", 16, 10.0);      // 1 SM
    rig.launch(rig.queueFor(0), &k1);
    rig.launch(rig.queueFor(1), &k2);
    rig.run();

    ASSERT_EQ(probe.starts.size(), 2u);
    EXPECT_GE(probe.starts[1].second, probe.finishes[0].second)
        << "cross-context back-to-back is not possible on the baseline";
}

TEST(Fcfs, ManyKernelsAllComplete)
{
    DeviceRig rig("fcfs", "context_switch");
    auto k = test::makeProfile("k", 40, 5.0);
    std::vector<gpu::CommandQueue *> queues;
    int completed = 0;
    for (int c = 0; c < 8; ++c) {
        queues.push_back(rig.queueFor(c));
        for (int i = 0; i < 4; ++i) {
            auto cmd = rig.pool.makeKernel(c, 0, &k);
            cmd->onComplete = [&completed] { ++completed; };
            rig.dispatcher.enqueue(queues.back(), cmd);
        }
    }
    rig.run();
    EXPECT_EQ(completed, 32);
    EXPECT_EQ(rig.framework.kernelsCompleted(), 32u);
    EXPECT_EQ(rig.framework.tbsCompleted(), 32u * 40u);
}
