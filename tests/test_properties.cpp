/**
 * Property-based tests: invariants that must hold across randomized
 * kernels, workloads, policies and mechanisms.  Parameterized sweeps
 * (TEST_P) act as the property harness; each instantiation draws
 * deterministic pseudo-random scenarios from its seed.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "metrics/metrics.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "tests/test_util.hh"
#include "workload/generator.hh"
#include "workload/system.hh"

using namespace gpump;
using test::DeviceRig;

// ------------------------------------------------------------------
// Property: under any policy/mechanism, every issued TB completes
// exactly once, kernels all finish, and no SM is oversubscribed.
// ------------------------------------------------------------------

namespace {

/** A uniform double in [lo, hi), one raw draw. */
double
uniformIn(sim::Rng &rng, double lo, double hi)
{
    return lo + (hi - lo) * rng.uniform();
}

/** A uniform integer in [lo, hi]. @pre lo <= hi */
int
intIn(sim::Rng &rng, int lo, int hi)
{
    return lo + static_cast<int>(
        rng.uniformInt(static_cast<std::uint64_t>(hi - lo + 1)));
}

struct InvariantProbe : core::EngineObserver
{
    core::SchedulingFramework *fw = nullptr;
    bool oversubscribed = false;
    void smAssigned(const gpu::Sm &sm, const gpu::KernelExec &k) override
    {
        if (static_cast<int>(sm.resident.size()) > k.occupancy())
            oversubscribed = true;
    }
};

} // namespace

class PolicyMechanismSweep
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string, std::uint64_t>>
{
};

TEST_P(PolicyMechanismSweep, ConservationAndCompletion)
{
    const auto &[policy, mechanism, seed] = GetParam();
    DeviceRig rig(policy, mechanism, sim::Config(), seed);
    InvariantProbe probe;
    probe.fw = &rig.framework;
    rig.framework.addObserver(&probe);

    sim::Rng rng(seed);
    std::vector<trace::KernelProfile> profiles;
    profiles.reserve(24);
    std::uint64_t expected_tbs = 0;
    int expected_kernels = 0;

    // 4 contexts x 6 random kernels each, random priorities, random
    // submission times.
    std::vector<gpu::CommandQueue *> queues;
    for (int c = 0; c < 4; ++c)
        queues.push_back(rig.queueFor(c));
    for (int c = 0; c < 4; ++c) {
        for (int i = 0; i < 6; ++i) {
            trace::KernelProfile k = test::makeProfile(
                sim::strformat("k%d_%d", c, i), intIn(rng, 1, 400),
                uniformIn(rng, 0.5, 60.0), intIn(rng, 512, 40000),
                intIn(rng, 0, 12000), 64 << intIn(rng, 0, 4));
            profiles.push_back(k);
            expected_tbs +=
                static_cast<std::uint64_t>(k.numThreadBlocks);
            ++expected_kernels;
        }
    }
    std::size_t next = 0;
    for (int c = 0; c < 4; ++c) {
        for (int i = 0; i < 6; ++i) {
            const auto *prof = &profiles[next++];
            int prio = intIn(rng, 0, 2);
            sim::SimTime at = sim::microseconds(uniformIn(rng, 0, 300.0));
            auto *q = queues[static_cast<std::size_t>(c)];
            rig.sim.events().schedule(at, [&rig, q, prof, prio] {
                rig.launch(q, prof, prio);
            });
        }
    }

    rig.run();

    EXPECT_EQ(rig.framework.kernelsCompleted(),
              static_cast<std::uint64_t>(expected_kernels));
    EXPECT_EQ(rig.framework.tbsCompleted(), expected_tbs)
        << "thread blocks lost or duplicated";
    EXPECT_FALSE(probe.oversubscribed) << "SM occupancy violated";

    // Terminal state: engine fully drained.
    EXPECT_TRUE(rig.framework.activeKernels().empty());
    EXPECT_EQ(rig.framework.engineContext(), sim::invalidContext);
    for (const auto &sm : rig.framework.sms()) {
        EXPECT_EQ(sm->state, gpu::Sm::State::Idle);
        EXPECT_FALSE(sm->reserved);
        EXPECT_TRUE(sm->resident.empty());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PolicyMechanismSweep,
    ::testing::Combine(
        ::testing::Values("fcfs", "npq", "ppq_excl", "ppq_shared",
                          "dss"),
        ::testing::Values("context_switch", "draining"),
        ::testing::Values(1u, 42u, 20260610u)),
    [](const auto &info) {
        return std::get<0>(info.param) + "_" +
            std::get<1>(info.param) + "_" +
            std::to_string(std::get<2>(info.param));
    });

// ------------------------------------------------------------------
// Property: metric bounds hold on randomized multiprogrammed
// workloads of real benchmarks.
// ------------------------------------------------------------------

class WorkloadMetricSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{
};

TEST_P(WorkloadMetricSweep, MetricBounds)
{
    const auto &[policy, nprocs] = GetParam();
    auto plans = workload::makeUniformPlans(nprocs, 1, 97);
    workload::SystemSpec spec;
    spec.benchmarks = plans[0].benchmarks;
    spec.policy = policy;
    spec.minReplays = 2;
    spec.seed = plans[0].seed;
    workload::System system(spec);
    auto result = system.run(sim::seconds(120.0));

    std::vector<double> iso;
    for (const auto &b : spec.benchmarks) {
        workload::SystemSpec iso_spec;
        iso_spec.benchmarks = {b};
        iso_spec.minReplays = 2;
        workload::System iso_sys(iso_spec);
        iso.push_back(iso_sys.run(sim::seconds(60.0))
                          .meanTurnaroundUs[0]);
    }
    auto m = metrics::computeMetrics(iso, result.meanTurnaroundUs);
    EXPECT_GE(m.fairness, 0.0);
    EXPECT_LE(m.fairness, 1.0);
    EXPECT_GT(m.stp, 0.0);
    EXPECT_LE(m.stp, static_cast<double>(nprocs) + 1e-9);
    for (double ntt : m.ntt)
        EXPECT_GT(ntt, 0.95) << "slowdown below 1 on a "
                                "work-conserving scheduler";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WorkloadMetricSweep,
    ::testing::Combine(::testing::Values("fcfs", "dss"),
                       ::testing::Values(2, 4)),
    [](const auto &info) {
        return std::get<0>(info.param) + "_" +
            std::to_string(std::get<1>(info.param)) + "proc";
    });

// ------------------------------------------------------------------
// Property: DSS shares sum to the SM count whenever every active
// kernel has abundant work (work conservation).
// ------------------------------------------------------------------

TEST(DssProperty, WorkConservingUnderSaturation)
{
    for (std::uint64_t seed : {3u, 17u, 291u}) {
        sim::Config cfg;
        cfg.set("dss.tokens_per_kernel", static_cast<std::int64_t>(3));
        cfg.set("dss.bonus_tokens", static_cast<std::int64_t>(1));
        DeviceRig rig("dss", "context_switch", cfg, seed);
        sim::Rng rng(seed);

        std::vector<trace::KernelProfile> profiles;
        for (int c = 0; c < 4; ++c) {
            profiles.push_back(test::makeProfile(
                sim::strformat("k%d", c), 30000,
                uniformIn(rng, 20.0, 80.0), intIn(rng, 2048, 30000)));
        }
        for (int c = 0; c < 4; ++c)
            rig.launch(rig.queueFor(c), &profiles[
                static_cast<std::size_t>(c)]);

        rig.run(sim::milliseconds(5.0));
        int held = 0;
        for (const auto &sm : rig.framework.sms()) {
            if (sm->kernel != nullptr)
                ++held;
        }
        EXPECT_EQ(held, rig.params.numSms)
            << "idle SMs while every kernel has work (seed " << seed
            << ")";
    }
}
