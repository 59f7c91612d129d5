/**
 * Scenario-level integration tests: the paper's Figure 2 ordering,
 * mixed-engine stream ordering, DSS reservation retargeting and
 * uncontended runs matching the solo baseline under every policy.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/logging.hh"
#include "tests/test_util.hh"
#include "workload/system.hh"

using namespace gpump;
using test::DeviceRig;

namespace {

struct SpanProbe : core::EngineObserver
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
    sim::SimTime startOf(const std::string &n) const
    {
        for (auto &s : starts)
            if (s.first == n)
                return s.second;
        return -1;
    }
    sim::SimTime finishOf(const std::string &n) const
    {
        for (auto &f : finishes)
            if (f.first == n)
                return f.second;
        return -1;
    }
};

/** The Figure 2 scenario under a given policy; returns K3's
 *  submission-to-completion latency. */
sim::SimTime
figure2Latency(const std::string &policy)
{
    DeviceRig rig(policy, "context_switch");
    SpanProbe probe;
    probe.sim = &rig.sim;
    rig.framework.addObserver(&probe);

    static auto k1 = test::makeProfile("K1", 13 * 16 * 16, 25.0);
    static auto k2 = test::makeProfile("K2", 13 * 16 * 8, 25.0);
    static auto k3 = test::makeProfile("K3", 13 * 16 / 2, 25.0);

    auto *q1 = rig.queueFor(0);
    auto *q2 = rig.queueFor(1);
    auto *q3 = rig.queueFor(2);
    rig.launch(q1, &k1, 0);
    rig.sim.events().schedule(sim::microseconds(50.0), [&rig, q2] {
        rig.launch(q2, &k2, 0);
    });
    sim::SimTime submit3 = sim::microseconds(100.0);
    rig.sim.events().schedule(submit3, [&rig, q3] {
        rig.launch(q3, &k3, 5);
    });
    rig.run();
    return probe.finishOf("K3") - submit3;
}

} // namespace

TEST(Figure2, LatencyOrderingFcfsNpqPpq)
{
    sim::SimTime fcfs = figure2Latency("fcfs");
    sim::SimTime npq = figure2Latency("npq");
    sim::SimTime ppq = figure2Latency("ppq_excl");

    // Figure 2: each step of scheduler sophistication cuts K3's
    // latency, and preemption decouples it from K1's length entirely.
    EXPECT_LT(npq, fcfs);
    EXPECT_LT(ppq, npq);
    EXPECT_LT(ppq, sim::microseconds(60.0))
        << "preemptive latency must not depend on K1's remaining time";
    EXPECT_GT(fcfs, sim::microseconds(400.0))
        << "FCFS must wait for both queued kernels";
}

TEST(Scenarios, StreamOrdersAcrossEngines)
{
    // In one hardware queue, a kernel enqueued after a memcpy must
    // not start until the memcpy completed (in-order streams), even
    // though the two commands target different engines.
    DeviceRig rig;
    SpanProbe probe;
    probe.sim = &rig.sim;
    rig.framework.addObserver(&probe);

    auto *q = rig.queueFor(0);
    sim::SimTime copy_done = -1;
    auto copy = rig.pool.makeMemcpy(
        0, 0, gpu::Command::Kind::MemcpyH2D, 16 << 20);
    copy->onComplete = [&] { copy_done = rig.sim.now(); };
    rig.dispatcher.enqueue(q, copy);

    auto k = test::makeProfile("after_copy", 13, 5.0);
    rig.launch(q, &k);
    rig.run();

    ASSERT_GE(copy_done, 0);
    EXPECT_GE(probe.startOf("after_copy"), copy_done)
        << "stream order violated across engines";
}

TEST(Scenarios, IndependentQueuesDoNotOrder)
{
    // The same two commands in different queues (different contexts)
    // overlap freely.
    DeviceRig rig;
    SpanProbe probe;
    probe.sim = &rig.sim;
    rig.framework.addObserver(&probe);

    auto copy = rig.pool.makeMemcpy(
        0, 0, gpu::Command::Kind::MemcpyH2D, 16 << 20);
    sim::SimTime copy_done = -1;
    copy->onComplete = [&] { copy_done = rig.sim.now(); };
    rig.dispatcher.enqueue(rig.queueFor(0), copy);

    auto k = test::makeProfile("parallel", 13, 5.0);
    rig.launch(rig.queueFor(1), &k);
    rig.run();

    EXPECT_LT(probe.startOf("parallel"), copy_done)
        << "independent engines must overlap (Section 2.2)";
}

TEST(Scenarios, DssRetargetRecoversOrphanReservations)
{
    // A draining reservation whose beneficiary finishes mid-drain:
    // with retargeting the SM is redirected; either way the system
    // must settle with every SM busy on the survivor.
    for (bool retarget : {true, false}) {
        sim::Config cfg;
        cfg.set("dss.tokens_per_kernel", static_cast<std::int64_t>(4));
        cfg.set("dss.bonus_tokens", static_cast<std::int64_t>(1));
        cfg.set("dss.retarget", retarget);
        DeviceRig rig("dss", "draining", cfg);

        auto long_a = test::makeProfile("a", 40000, 100.0);
        auto tiny = test::makeProfile("t", 13, 5.0);
        auto long_b = test::makeProfile("b", 40000, 100.0);
        rig.launch(rig.queueFor(0), &long_a);
        rig.run(sim::microseconds(200.0));
        // tiny triggers reservations, then finishes long before the
        // 100 us drains complete -> orphans.
        rig.launch(rig.queueFor(1), &tiny);
        rig.launch(rig.queueFor(2), &long_b);
        rig.run(rig.sim.now() + sim::milliseconds(3.0));

        int busy = 0;
        for (const auto &sm : rig.framework.sms()) {
            if (sm->kernel != nullptr)
                ++busy;
        }
        EXPECT_EQ(busy, 13)
            << "orphaned reservations leaked SMs (retarget="
            << retarget << ")";
    }
}

TEST(Scenarios, FcfsIsolatedEqualsSoloBaseline)
{
    // Sanity anchor for all NTT metrics: a 1-process "workload" under
    // every policy matches the FCFS isolated time (policies must not
    // perturb uncontended execution).
    double fcfs_us = 0;
    for (const char *policy : {"fcfs", "npq", "ppq_excl", "dss"}) {
        workload::SystemSpec spec;
        spec.benchmarks = {"histo"};
        spec.policy = policy;
        spec.minReplays = 2;
        workload::System system(spec);
        double t = system.run(sim::seconds(30.0)).meanTurnaroundUs[0];
        if (fcfs_us == 0)
            fcfs_us = t;
        EXPECT_NEAR(t, fcfs_us, fcfs_us * 0.01) << policy;
    }
}
