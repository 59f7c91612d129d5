/** Unit tests for the Eyerman-Eeckhout metric calculations. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "metrics/metrics.hh"
#include "sim/logging.hh"

using namespace gpump;
using namespace gpump::metrics;

TEST(Metrics, SingleProcessBaseline)
{
    auto m = computeMetrics({100.0}, {100.0});
    ASSERT_EQ(m.ntt.size(), 1u);
    EXPECT_DOUBLE_EQ(m.ntt[0], 1.0);
    EXPECT_DOUBLE_EQ(m.antt, 1.0);
    EXPECT_DOUBLE_EQ(m.stp, 1.0);
    EXPECT_DOUBLE_EQ(m.fairness, 1.0);
}

TEST(Metrics, KnownTwoProcessCase)
{
    // P0 slowed 2x, P1 slowed 4x.
    auto m = computeMetrics({100.0, 50.0}, {200.0, 200.0});
    EXPECT_DOUBLE_EQ(m.ntt[0], 2.0);
    EXPECT_DOUBLE_EQ(m.ntt[1], 4.0);
    EXPECT_DOUBLE_EQ(m.antt, 3.0);
    EXPECT_DOUBLE_EQ(m.stp, 0.5 + 0.25);
    EXPECT_DOUBLE_EQ(m.fairness, 0.5);
}

TEST(Metrics, PerfectSharingOfNProcesses)
{
    // n processes each slowed exactly n times: STP stays 1 (the
    // machine does one process-worth of work per unit time), ANTT =
    // n, fairness = 1.
    const int n = 4;
    std::vector<double> iso(n, 10.0), multi(n, 40.0);
    auto m = computeMetrics(iso, multi);
    EXPECT_DOUBLE_EQ(m.antt, 4.0);
    EXPECT_DOUBLE_EQ(m.stp, 1.0);
    EXPECT_DOUBLE_EQ(m.fairness, 1.0);
}

TEST(Metrics, StpBoundedByProcessCount)
{
    // Even with no slowdown at all, STP cannot exceed n.
    auto m = computeMetrics({10.0, 20.0, 30.0}, {10.0, 20.0, 30.0});
    EXPECT_DOUBLE_EQ(m.stp, 3.0);
    EXPECT_DOUBLE_EQ(m.antt, 1.0);
}

TEST(Metrics, FairnessApproachesZeroUnderStarvation)
{
    auto m = computeMetrics({10.0, 10.0}, {10.0, 1e7});
    EXPECT_LT(m.fairness, 1e-5);
    EXPECT_GT(m.fairness, 0.0);
}

TEST(Metrics, FairnessIsMinOverMaxOfSlowdowns)
{
    auto m = computeMetrics({10.0, 10.0, 10.0}, {20.0, 30.0, 60.0});
    // slowdowns 2, 3, 6 -> min/max = 1/3.
    EXPECT_NEAR(m.fairness, 2.0 / 6.0, 1e-12);
}

TEST(Metrics, ValidationErrors)
{
    EXPECT_THROW(computeMetrics({1.0}, {1.0, 2.0}), sim::FatalError);
    EXPECT_THROW(computeMetrics({}, {}), sim::FatalError);
}

TEST(Metrics, DegenerateTimesYieldNanNotFatal)
{
    // A zero isolated baseline (empty/degenerate plan) or turnaround
    // must not abort a whole batch; the affected metrics become quiet
    // NaN instead (serialized as JSON null by the report layer).
    for (auto &[iso, multi] :
         std::vector<std::pair<std::vector<double>, std::vector<double>>>{
             {{0.0}, {1.0}},
             {{1.0}, {-1.0}},
             {{std::numeric_limits<double>::infinity()}, {1.0}},
             {{1.0}, {std::numeric_limits<double>::quiet_NaN()}}}) {
        SystemMetrics m;
        ASSERT_NO_THROW(m = computeMetrics(iso, multi));
        ASSERT_EQ(m.ntt.size(), 1u);
        EXPECT_TRUE(std::isnan(m.ntt[0]));
        EXPECT_TRUE(std::isnan(m.antt));
        EXPECT_TRUE(std::isnan(m.stp));
        EXPECT_TRUE(std::isnan(m.fairness));
    }
}

TEST(Metrics, DegenerateCellPoisonsOnlyItsOwnNtt)
{
    // One broken process out of three: its NTT is NaN and the
    // aggregates are NaN, but the healthy per-process ratios survive
    // for diagnosis.
    auto m = computeMetrics({10.0, 0.0, 10.0}, {20.0, 5.0, 40.0});
    ASSERT_EQ(m.ntt.size(), 3u);
    EXPECT_DOUBLE_EQ(m.ntt[0], 2.0);
    EXPECT_TRUE(std::isnan(m.ntt[1]));
    EXPECT_DOUBLE_EQ(m.ntt[2], 4.0);
    EXPECT_TRUE(std::isnan(m.antt));
    EXPECT_TRUE(std::isnan(m.stp));
    EXPECT_TRUE(std::isnan(m.fairness));
}

TEST(Metrics, Mean)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_THROW(mean({}), sim::PanicError);
}
