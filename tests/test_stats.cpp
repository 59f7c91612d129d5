/** Unit tests for the statistics package. */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "sim/logging.hh"
#include "sim/stats.hh"

using namespace gpump;
using namespace gpump::sim;

TEST(Stats, ScalarAccumulates)
{
    StatRegistry reg;
    Scalar s(reg, "a.b", "test");
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
    s += 2.5;
    ++s;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s.set(7.0);
    EXPECT_DOUBLE_EQ(s.value(), 7.0);
}

TEST(Stats, DistributionMoments)
{
    StatRegistry reg;
    Distribution d(reg, "d", "test");
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.sample(v);
    EXPECT_EQ(d.count(), 8u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 9.0);
    EXPECT_NEAR(d.stddev(), 2.0, 1e-12); // classic Welford example
}

TEST(Stats, DistributionEmptyIsSafe)
{
    StatRegistry reg;
    Distribution d(reg, "d", "test");
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 0.0);
}

TEST(Stats, RegistryFindsAndDumps)
{
    StatRegistry reg;
    Scalar a(reg, "x.count", "things");
    Distribution d(reg, "x.lat", "latency");
    a += 3;
    d.sample(1.0);

    EXPECT_EQ(reg.find("x.count"), &a);
    EXPECT_EQ(reg.find("missing"), nullptr);

    std::ostringstream os;
    reg.dump(os);
    std::string text = os.str();
    EXPECT_NE(text.find("x.count 3"), std::string::npos);
    EXPECT_NE(text.find("x.lat.count 1"), std::string::npos);
}

TEST(Stats, DuplicateNamePanics)
{
    StatRegistry reg;
    Scalar a(reg, "dup", "");
    EXPECT_THROW(Scalar(reg, "dup", ""), PanicError);
}

TEST(Stats, WelfordStableForLargeStreams)
{
    StatRegistry reg;
    Distribution d(reg, "big", "");
    // Large offset stresses naive sum-of-squares; Welford handles it.
    for (int i = 0; i < 100000; ++i)
        d.sample(1e9 + (i % 2 == 0 ? 1.0 : -1.0));
    EXPECT_NEAR(d.mean(), 1e9, 1e-3);
    EXPECT_NEAR(d.stddev(), 1.0, 1e-6);
}

TEST(Stats, DestroyedStatUnregistersItself)
{
    // A stat that dies before its registry must drop out of it:
    // otherwise the registry dangles.
    StatRegistry reg;
    {
        Scalar tmp(reg, "x.tmp", "scoped");
        EXPECT_EQ(reg.find("x.tmp"), &tmp);
    }
    EXPECT_EQ(reg.find("x.tmp"), nullptr);

    // The name is reusable afterwards.
    Scalar again(reg, "x.tmp", "reused");
    EXPECT_EQ(reg.find("x.tmp"), &again);
}
