/**
 * Tests of the declarative Suite/Runner batch API: grid expansion,
 * request-order preservation, in-process-vs-forked bit-identity, the
 * memoized isolated-baseline cache and pinned golden aggregates
 * (so future perf work cannot silently change results).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "harness/suite.hh"
#include "sim/logging.hh"

using namespace gpump;
using namespace gpump::harness;

namespace {

/** The small grid shared by the determinism tests. */
Batch
smallGrid()
{
    Suite suite("grid");
    suite.sizes({2})
        .uniform(/*count=*/3, /*base_seed=*/20140614)
        .minReplays(1)
        .scheme("FCFS", {"fcfs", "context_switch", "fcfs"})
        .scheme("DSS-CS", {"dss", "context_switch", "fcfs"});
    return suite.build();
}

} // namespace

TEST(Suite, BuildsOrderedGridWithTags)
{
    Suite suite("s");
    suite.sizes({2, 4})
        .uniform(2, 7)
        .minReplays(5)
        .scheme("A", {"fcfs", "context_switch", "fcfs"})
        .scheme("B", {"dss", "draining", "fcfs"});
    Batch batch = suite.build();

    // 2 sizes x 2 plans x 2 schemes, size-major then plan then scheme.
    ASSERT_EQ(batch.requests.size(), 8u);
    ASSERT_EQ(batch.sizes.size(), 2u);
    EXPECT_EQ(batch.numPlans(0), 2u);
    for (std::size_t i = 0; i < batch.requests.size(); ++i)
        EXPECT_EQ(batch.requests[i].index, i);
    EXPECT_EQ(batch.requests[0].tag, "s/size=2/plan=0/A");
    EXPECT_EQ(batch.requests[1].tag, "s/size=2/plan=0/B");
    EXPECT_EQ(batch.requests[4].tag, "s/size=4/plan=0/A");
    EXPECT_EQ(batch.indexOf(1, 1, 1), 7u);
    EXPECT_EQ(batch.requests[batch.indexOf(1, 1, 1)].tag,
              "s/size=4/plan=1/B");
    EXPECT_EQ(batch.requests[2].minReplays, 5);

    // Plans of a size bucket are shared across schemes.
    EXPECT_EQ(batch.requests[0].plan.benchmarks,
              batch.requests[1].plan.benchmarks);
    EXPECT_EQ(batch.requests[0].plan.seed, batch.requests[1].plan.seed);
}

TEST(Suite, NonprioritizedSchemeDropsPriorities)
{
    Suite suite("s");
    suite.sizes({2})
        .prioritized(/*per_bench=*/1, /*base_seed=*/1)
        .schemeNonprioritized("BASE", {"fcfs", "context_switch", "fcfs"})
        .scheme("NPQ", {"npq", "context_switch", "priority"});
    Batch batch = suite.build();

    const RunRequest &base = batch.requests[batch.indexOf(0, 0, 0)];
    const RunRequest &npq = batch.requests[batch.indexOf(0, 0, 1)];
    EXPECT_EQ(base.plan.highPriorityIndex, -1);
    EXPECT_TRUE(base.plan.priorities().empty());
    EXPECT_EQ(npq.plan.highPriorityIndex, 0);
    // Same workload otherwise.
    EXPECT_EQ(base.plan.benchmarks, npq.plan.benchmarks);
    EXPECT_EQ(base.plan.seed, npq.plan.seed);
}

TEST(Suite, BuildWithoutPlansOrSchemesPanics)
{
    Suite no_plans("s");
    no_plans.scheme("A", Scheme());
    EXPECT_THROW(no_plans.build(), sim::PanicError);

    Suite no_schemes("s");
    no_schemes.uniform(1, 1);
    EXPECT_THROW(no_schemes.build(), sim::PanicError);
}

TEST(IsolatedBaselineCache, RepeatedKeyComputesOnce)
{
    IsolatedBaselineCache cache;
    sim::Config cfg;
    const double first = cache.timeUs("sgemm", cfg, 1);
    EXPECT_GT(first, 0.0);
    for (int i = 0; i < 3; ++i)
        EXPECT_DOUBLE_EQ(cache.timeUs("sgemm", cfg, 1), first);
    // All four lookups shared one computation.
    EXPECT_EQ(cache.computations(), 1u);

    // A different config is a different cache entry.
    sim::Config small;
    small.set("gpu.num_sms", static_cast<std::int64_t>(2));
    EXPECT_NE(cache.timeUs("sgemm", small, 1), first);
    EXPECT_EQ(cache.computations(), 2u);
}

TEST(Runner, ParallelBatchBitIdenticalToSerialAndOrdered)
{
    Batch batch = smallGrid();

    Runner serial(sim::Config(), /*jobs=*/1);
    auto expected = serial.run(batch.requests);

    // Four forked workers; progress is reported in this process.
    Runner parallel(sim::Config(), /*jobs=*/4);
    std::vector<std::size_t> done_values;
    parallel.setProgress([&](std::size_t done, std::size_t total,
                             const RunRequest &, const RunResult &res) {
        EXPECT_EQ(total, batch.requests.size());
        // Throughput telemetry rides along with every finished run.
        EXPECT_GT(res.sys.eventsExecuted, 0u);
        EXPECT_GE(res.wallSeconds, 0.0);
        done_values.push_back(done);
    });
    auto actual = parallel.run(batch.requests);

    // Request order is preserved regardless of completion order.
    ASSERT_EQ(actual.size(), batch.requests.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i].index, i);
        EXPECT_EQ(actual[i].tag, batch.requests[i].tag);
    }

    // Bit-identical results for any job count.
    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const auto &e = expected[i];
        const auto &a = actual[i];
        EXPECT_EQ(e.metrics.antt, a.metrics.antt);
        EXPECT_EQ(e.metrics.stp, a.metrics.stp);
        EXPECT_EQ(e.metrics.fairness, a.metrics.fairness);
        EXPECT_EQ(e.metrics.ntt, a.metrics.ntt);
        EXPECT_EQ(e.isolatedUs, a.isolatedUs);
        EXPECT_EQ(e.sys.meanTurnaroundUs, a.sys.meanTurnaroundUs);
        EXPECT_EQ(e.sys.endTime, a.sys.endTime);
        EXPECT_EQ(e.sys.preemptions, a.sys.preemptions);
        EXPECT_EQ(e.sys.kernelsCompleted, a.sys.kernelsCompleted);
        EXPECT_EQ(e.sys.eventsExecuted, a.sys.eventsExecuted);
    }

    // The progress counter hit every value 1..N exactly once.
    std::sort(done_values.begin(), done_values.end());
    ASSERT_EQ(done_values.size(), batch.requests.size());
    for (std::size_t i = 0; i < done_values.size(); ++i)
        EXPECT_EQ(done_values[i], i + 1);
}

TEST(Runner, PerSchemeOverridesReachTheSimulation)
{
    workload::WorkloadPlan plan;
    plan.benchmarks = {"sgemm"};
    plan.seed = 7;

    sim::Config small;
    small.set("gpu.num_sms", static_cast<std::int64_t>(2));

    Suite suite("cfg");
    suite.fixedPlans({plan})
        .minReplays(1)
        .scheme("full", {"fcfs", "context_switch", "fcfs"})
        .scheme("small", {"fcfs", "context_switch", "fcfs"}, small);
    Batch batch = suite.build();

    Runner runner;
    auto results = runner.run(batch.requests);
    // Shrinking the GPU must slow the run down; and each scheme's
    // isolated baseline is computed under its own effective config.
    EXPECT_GT(results[1].sys.meanTurnaroundUs[0],
              results[0].sys.meanTurnaroundUs[0]);
    EXPECT_GT(results[1].isolatedUs[0], results[0].isolatedUs[0]);
    EXPECT_EQ(runner.baselines().computations(), 2u);
}

TEST(Runner, FailingRequestAbortsAndRethrows)
{
    workload::WorkloadPlan plan;
    plan.benchmarks = {"sgemm"};

    RunRequest req;
    req.plan = plan;
    req.minReplays = 1;
    req.limit = 10; // far too short a horizon: the run cannot finish
    Runner runner;
    EXPECT_THROW(runner.run({req}), sim::FatalError);
}

TEST(Runner, GoldenFig5QuickAggregatePinned)
{
    // The AVERAGE-group, 2-process cell of `fig5_ppq_ntt --quick`:
    // mean NTT improvement of PPQ/context-switch over the
    // nonprioritized FCFS baseline across the ten prioritized plans.
    // The simulator is deterministic by construction (portable RNG,
    // per-run seeds), so this value is pinned exactly; a change means
    // the simulation's behavior changed, not just its performance.
    sim::Config cfg;
    cfg.set("gpu.tb_time_cv", 0.25); // figureConfig default

    Suite suite("fig5");
    suite.sizes({2})
        .prioritized(/*per_bench=*/1, /*base_seed=*/20140614)
        .minReplays(2) // --quick
        .schemeNonprioritized("BASE", {"fcfs", "context_switch", "fcfs"})
        .scheme("PPQ-CS", {"ppq_excl", "context_switch", "priority"});
    Batch batch = suite.build();

    Runner runner(cfg, /*jobs=*/2);
    auto results = runner.run(batch.requests);

    double sum = 0;
    for (std::size_t pi = 0; pi < batch.numPlans(0); ++pi) {
        double base = results[batch.indexOf(0, pi, 0)].metrics.ntt[0];
        double ppq = results[batch.indexOf(0, pi, 1)].metrics.ntt[0];
        sum += base / ppq;
    }
    double avg = sum / static_cast<double>(batch.numPlans(0));

    constexpr double kGolden = 1.4130172243592014;
    EXPECT_NEAR(avg, kGolden, 1e-9) << "pinned fig5 aggregate moved";
}

TEST(Suite, BuildValidatesSchemeNamesAndCollisions)
{
    // Unknown policy: rejected at build time, before any simulation.
    Suite bad_policy("s");
    bad_policy.uniform(1, 1).scheme(
        "X", {"not_a_policy", "context_switch", "fcfs"});
    EXPECT_THROW(bad_policy.build(), sim::FatalError);

    Suite bad_mech("s");
    bad_mech.uniform(1, 1).scheme("X", {"fcfs", "not_a_mech", "fcfs"});
    EXPECT_THROW(bad_mech.build(), sim::FatalError);

    // Two columns with the same name are indistinguishable in
    // reports.
    Suite dup_name("s");
    dup_name.uniform(1, 1)
        .scheme("X", {"fcfs", "context_switch", "fcfs"})
        .scheme("X", {"dss", "context_switch", "fcfs"});
    EXPECT_THROW(dup_name.build(), sim::FatalError);

    // Two columns that are the same scheme end to end (label +
    // overrides + prioritization) are a bug even under distinct
    // names.
    Suite dup_scheme("s");
    dup_scheme.uniform(1, 1)
        .scheme("A", {"dss", "context_switch", "fcfs"})
        .scheme("B", {"dss", "context_switch", "fcfs"});
    EXPECT_THROW(dup_scheme.build(), sim::FatalError);

    // ... but differing overrides make a legitimate ablation pair.
    sim::Config ablate;
    ablate.set("dss.retarget", false);
    Suite ablation("s");
    ablation.sizes({2}).uniform(1, 1)
        .scheme("A", {"dss", "context_switch", "fcfs"})
        .scheme("B", {"dss", "context_switch", "fcfs"}, ablate);
    EXPECT_NO_THROW(ablation.build());
}

TEST(Runner, GoldenFig7QuickAggregatePinned)
{
    // Second pinned figure aggregate (see GoldenFig5QuickAggregate):
    // the 2-process cell of `fig7_dss --quick`, mean ANTT improvement
    // of DSS/context-switch over FCFS across the three uniform plans.
    sim::Config cfg;
    cfg.set("gpu.tb_time_cv", 0.25); // figureConfig default

    Suite suite("fig7");
    suite.sizes({2})
        .uniform(/*count=*/3, /*base_seed=*/20140614)
        .minReplays(2) // --quick
        .scheme("FCFS", {"fcfs", "context_switch", "fcfs"})
        .scheme("DSS-CS", {"dss", "context_switch", "fcfs"});
    Batch batch = suite.build();

    Runner runner(cfg, /*jobs=*/2);
    auto results = runner.run(batch.requests);

    double sum = 0;
    for (std::size_t pi = 0; pi < batch.numPlans(0); ++pi) {
        double base = results[batch.indexOf(0, pi, 0)].metrics.antt;
        double dss = results[batch.indexOf(0, pi, 1)].metrics.antt;
        sum += base / dss;
    }
    double avg = sum / static_cast<double>(batch.numPlans(0));

    constexpr double kGolden = 1.0022550475518892;
    EXPECT_NEAR(avg, kGolden, 1e-9) << "pinned fig7 aggregate moved";
}

TEST(Runner, GoldenFig6QuickAggregatePinned)
{
    // Third pinned figure aggregate: the 2-process cell of
    // `fig6_ppq_stp --quick`, mean STP degradation of exclusive-mode
    // PPQ/context-switch over NPQ across the ten prioritized plans.
    // Together with the fig5 (NTT) and fig7 (ANTT) goldens this pins
    // each of the paper's headline aggregates exactly.
    sim::Config cfg;
    cfg.set("gpu.tb_time_cv", 0.25); // figureConfig default

    Suite suite("fig6");
    suite.sizes({2})
        .prioritized(/*per_bench=*/1, /*base_seed=*/20140614)
        .minReplays(2) // --quick
        .scheme("NPQ", {"npq", "context_switch", "priority"})
        .scheme("excl/CS", {"ppq_excl", "context_switch", "priority"});
    Batch batch = suite.build();

    Runner runner(cfg, /*jobs=*/2);
    auto results = runner.run(batch.requests);

    double sum = 0;
    for (std::size_t pi = 0; pi < batch.numPlans(0); ++pi) {
        double npq = results[batch.indexOf(0, pi, 0)].metrics.stp;
        double ppq = results[batch.indexOf(0, pi, 1)].metrics.stp;
        sum += npq / ppq;
    }
    double avg = sum / static_cast<double>(batch.numPlans(0));

    constexpr double kGolden = 1.0498411090168349;
    EXPECT_NEAR(avg, kGolden, 1e-9) << "pinned fig6 aggregate moved";
}
