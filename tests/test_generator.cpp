/** Tests of the workload generator (Section 4.1 methodology). */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "sim/logging.hh"
#include "trace/parboil.hh"
#include "workload/generator.hh"

using namespace gpump;
using namespace gpump::workload;

TEST(Generator, PrioritizedPlansCoverEveryBenchmarkEqually)
{
    auto plans = makePrioritizedPlans(4, 3, 42);
    EXPECT_EQ(plans.size(), 30u); // 10 benchmarks x 3

    std::map<std::string, int> hp_counts;
    for (const auto &p : plans) {
        ASSERT_EQ(p.benchmarks.size(), 4u);
        ASSERT_EQ(p.highPriorityIndex, 0);
        ++hp_counts[p.benchmarks[0]];
    }
    // "All the benchmark applications appear the same number of times
    // as the high-priority process" (Section 4.2).
    for (const auto &kv : hp_counts)
        EXPECT_EQ(kv.second, 3) << kv.first;
}

TEST(Generator, PlansContainDistinctBenchmarks)
{
    for (auto &plans : {makePrioritizedPlans(8, 2, 7),
                        makeUniformPlans(8, 20, 7)}) {
        for (const auto &p : plans) {
            std::set<std::string> s(p.benchmarks.begin(),
                                    p.benchmarks.end());
            EXPECT_EQ(s.size(), p.benchmarks.size())
                << "duplicate benchmark within one workload";
        }
    }
}

TEST(Generator, DeterministicForSameSeed)
{
    auto a = makeUniformPlans(4, 10, 99);
    auto b = makeUniformPlans(4, 10, 99);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].benchmarks, b[i].benchmarks);
        EXPECT_EQ(a[i].seed, b[i].seed);
    }
}

TEST(Generator, DifferentSeedsDiffer)
{
    auto a = makeUniformPlans(4, 10, 1);
    auto b = makeUniformPlans(4, 10, 2);
    int same = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].benchmarks == b[i].benchmarks)
            ++same;
    }
    EXPECT_LT(same, 5);
}

TEST(Generator, UniformPlansHaveNoPriorities)
{
    auto plans = makeUniformPlans(6, 5, 3);
    for (const auto &p : plans) {
        EXPECT_EQ(p.highPriorityIndex, -1);
        EXPECT_TRUE(p.priorities().empty());
    }
}

TEST(Generator, PrioritiesVectorMarksTheHighOne)
{
    auto plans = makePrioritizedPlans(4, 1, 5);
    for (const auto &p : plans) {
        auto prio = p.priorities();
        ASSERT_EQ(prio.size(), 4u);
        EXPECT_EQ(prio[0], 1);
        EXPECT_EQ(prio[1], 0);
    }
}

TEST(Generator, ValidatesProcessCounts)
{
    EXPECT_THROW(makePrioritizedPlans(1, 1, 0), sim::FatalError);
    EXPECT_THROW(makePrioritizedPlans(11, 1, 0), sim::FatalError);
    EXPECT_THROW(makeUniformPlans(0, 1, 0), sim::FatalError);
    EXPECT_THROW(makeUniformPlans(11, 1, 0), sim::FatalError);
}

TEST(Generator, NegativePlanCountsAreFatal)
{
    // A negative count would reach vector::reserve (std::length_error)
    // or quietly yield no plans; zero plans is a valid empty request.
    EXPECT_THROW(makeUniformPlans(2, -3, 0), sim::FatalError);
    EXPECT_THROW(makePrioritizedPlans(2, -1, 0), sim::FatalError);
    EXPECT_TRUE(makeUniformPlans(2, 0, 0).empty());
    EXPECT_TRUE(makePrioritizedPlans(2, 0, 0).empty());
}

TEST(Generator, AllBenchmarksReachableInUniformPlans)
{
    auto plans = makeUniformPlans(8, 40, 11);
    std::set<std::string> seen;
    for (const auto &p : plans)
        seen.insert(p.benchmarks.begin(), p.benchmarks.end());
    EXPECT_EQ(seen.size(), trace::parboilSuite().size());
}

TEST(Generator, PlanSeedsAreDistinctAndDeterministic)
{
    // Each workload gets its own simulation seed so runs are
    // independent, and re-generating with the same base seed must
    // reproduce the exact seed assignment.
    auto a = makePrioritizedPlans(4, 2, 17);
    auto b = makePrioritizedPlans(4, 2, 17);
    std::set<std::uint64_t> seeds;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].seed, b[i].seed);
        seeds.insert(a[i].seed);
    }
    EXPECT_EQ(seeds.size(), a.size()) << "duplicate per-plan seeds";
}

TEST(Generator, PlanBenchmarksComeFromTheParboilSuite)
{
    std::set<std::string> suite;
    for (const auto &spec : trace::parboilSuite())
        suite.insert(spec.name);

    for (auto &plans : {makePrioritizedPlans(6, 2, 23),
                        makeUniformPlans(6, 12, 23)}) {
        for (const auto &p : plans)
            for (const auto &name : p.benchmarks)
                EXPECT_TRUE(suite.count(name))
                    << name << " is not a Parboil benchmark";
    }
}

TEST(Generator, UniformPlanCountAndWidthAreHonoured)
{
    auto plans = makeUniformPlans(5, 13, 31);
    ASSERT_EQ(plans.size(), 13u);
    for (const auto &p : plans)
        EXPECT_EQ(p.benchmarks.size(), 5u);
}
