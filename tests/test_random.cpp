/** Unit tests for the deterministic RNG and its distributions. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/random.hh"

using namespace gpump;
using sim::Rng;

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(12345), b(12345);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++equal;
    }
    EXPECT_LT(equal, 3);
}

TEST(Rng, ReseedRestoresStream)
{
    Rng a(7);
    std::vector<std::uint64_t> first;
    for (int i = 0; i < 16; ++i)
        first.push_back(a.next());
    a.seed(7);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next(), first[static_cast<std::size_t>(i)]);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(99);
    double sum = 0.0;
    for (int i = 0; i < 100000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, UniformIntBounds)
{
    Rng r(5);
    for (int i = 0; i < 10000; ++i) {
        auto v = r.uniformInt(static_cast<std::uint64_t>(13));
        ASSERT_LT(v, 13u);
    }
}

TEST(Rng, UniformIntCoversRange)
{
    Rng r(17);
    std::vector<int> seen(6, 0);
    for (int i = 0; i < 6000; ++i)
        ++seen[static_cast<std::size_t>(r.uniformInt(
            static_cast<std::uint64_t>(6)))];
    for (int count : seen)
        EXPECT_GT(count, 800) << "a face of the die never came up";
}

TEST(Rng, NormalMoments)
{
    Rng r(23);
    double sum = 0.0, sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        double x = r.normal();
        sum += x;
        sq += x * x;
    }
    double mean = sum / n;
    double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.01);
    EXPECT_NEAR(var, 1.0, 0.02);
}

TEST(Rng, LognormalMatchesMeanAndCv)
{
    Rng r(31);
    const double target_mean = 8.7, target_cv = 0.4;
    const Rng::Lognormal dist =
        Rng::Lognormal::fromMeanCv(target_mean, target_cv);
    double sum = 0.0, sq = 0.0;
    const int n = 300000;
    for (int i = 0; i < n; ++i) {
        double x = r.lognormal(dist);
        ASSERT_GT(x, 0.0);
        sum += x;
        sq += x * x;
    }
    double mean = sum / n;
    double cv = std::sqrt(sq / n - mean * mean) / mean;
    EXPECT_NEAR(mean, target_mean, target_mean * 0.02);
    EXPECT_NEAR(cv, target_cv, 0.02);
}

TEST(Rng, ExponentialMean)
{
    Rng r(41);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += r.exponential(3.0);
    EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Rng, LognormalDrawsMatchTheirFormulaBitForBit)
{
    // A Lognormal solved once draws exp(normal(mu, sigma)) with mu
    // and sigma solved as the simulator has always solved them, two
    // raw draws per sample.  Checked with EXPECT_EQ on doubles, i.e.
    // bit-for-bit.
    constexpr std::size_t n = 4096;
    std::vector<double> hoisted(n), formula(n);

    const struct
    {
        std::uint64_t seed;
        double mean, cv;
    } cases[] = {{13, 8.7, 0.4}, {29, 0.25, 0.25}, {31, 1234.5, 1.5},
                 {37, 3.0, 1e-3}};
    // The solve the simulator has always run, written out.
    auto solved = [](double mean, double cv) {
        const double sigma2 = std::log(1.0 + cv * cv);
        return Rng::Lognormal{std::log(mean) - 0.5 * sigma2,
                              std::sqrt(sigma2)};
    };
    for (const auto &c : cases) {
        Rng a(c.seed), ref(c.seed);
        const Rng::Lognormal dist = Rng::Lognormal::fromMeanCv(c.mean, c.cv);
        const Rng::Lognormal expect = solved(c.mean, c.cv);
        for (std::size_t i = 0; i < n; ++i) {
            hoisted[i] = a.lognormal(dist);
            formula[i] = std::exp(ref.normal(expect.mu, expect.sigma));
        }
        EXPECT_EQ(hoisted, formula) << "mean " << c.mean << " cv " << c.cv;
        EXPECT_EQ(a.next(), ref.next()) << "draw counts diverged";
    }

    // Interleaving per-kernel draws of two kernels and exponential
    // gaps continues one stream.
    Rng interleaved(23), plain(23);
    const Rng::Lognormal k1 = Rng::Lognormal::fromMeanCv(2.0, 0.3);
    const Rng::Lognormal k2 = Rng::Lognormal::fromMeanCv(40.0, 0.25);
    const Rng::Lognormal e1 = solved(2.0, 0.3), e2 = solved(40.0, 0.25);
    for (std::size_t i = 0; i < n; ++i) {
        bool first = i % 3 != 0;
        double x = interleaved.lognormal(first ? k1 : k2);
        const Rng::Lognormal &e = first ? e1 : e2;
        double y = std::exp(plain.normal(e.mu, e.sigma));
        ASSERT_EQ(x, y) << "draw " << i;
        if (i % 7 == 0) {
            ASSERT_EQ(interleaved.exponential(5.0), plain.exponential(5.0));
        }
    }
    EXPECT_EQ(interleaved.next(), plain.next());
}

TEST(Rng, BoxMullerZeroDrawStaysFinite)
{
    // Regression: uniform() returns exactly 0 with probability 2^-53;
    // log(0) = -inf would have produced an infinite normal (and an
    // infinite or zero lognormal TB duration).  The zero draw is
    // remapped to 2^-53, not redrawn, so the per-sample draw count
    // stays fixed.
    EXPECT_TRUE(std::isfinite(Rng::boxMuller(0.0, 0.25)));
    EXPECT_TRUE(std::isfinite(Rng::boxMuller(0.0, 0.0)));
    // The remap maps 0 to the smallest nonzero uniform, exactly.
    EXPECT_EQ(Rng::boxMuller(0.0, 0.75), Rng::boxMuller(0x1.0p-53, 0.75));
    // Nonzero draws are untouched.
    EXPECT_EQ(Rng::boxMuller(0.5, 0.5),
              std::sqrt(-2.0 * std::log(0.5)) *
                  std::cos(2.0 * 3.14159265358979323846 * 0.5));
}

TEST(Rng, NormalAndLognormalFiniteAcrossSeedSweep)
{
    const Rng::Lognormal dist = Rng::Lognormal::fromMeanCv(10.0, 0.25);
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        Rng r(seed);
        for (int i = 0; i < 2000; ++i) {
            double z = r.normal();
            ASSERT_TRUE(std::isfinite(z)) << "seed " << seed;
            double x = r.lognormal(dist);
            ASSERT_TRUE(std::isfinite(x)) << "seed " << seed;
            ASSERT_GT(x, 0.0) << "seed " << seed;
        }
    }
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng parent(55);
    Rng child = parent.fork();
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (parent.next() == child.next())
            ++equal;
    }
    EXPECT_LT(equal, 3);
}

TEST(Rng, InvalidArgumentsPanic)
{
    Rng r(1);
    EXPECT_THROW(r.uniformInt(static_cast<std::uint64_t>(0)),
                 sim::PanicError);
    EXPECT_THROW(Rng::Lognormal::fromMeanCv(0.0, 0.5), sim::PanicError);
    EXPECT_THROW(Rng::Lognormal::fromMeanCv(1.0, 0.0), sim::PanicError);
    EXPECT_THROW(r.exponential(0.0), sim::PanicError);
}
