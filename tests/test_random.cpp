/** Unit tests for the deterministic RNG and its distributions. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
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
    for (int i = 0; i < 1000; ++i) {
        auto v = r.uniformInt(static_cast<std::int64_t>(-5), 5);
        ASSERT_GE(v, -5);
        ASSERT_LE(v, 5);
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

TEST(Rng, UniformIntSurvivesFullSignedRange)
{
    // Regression: the range width hi - lo + 1 used to be computed in
    // signed arithmetic, which overflows (UB) once the range spans
    // more than half the int64 domain; [INT64_MIN, INT64_MAX] then
    // collapsed to a zero-width uniformInt call and a panic.
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

    Rng r(2718);
    bool saw_negative = false, saw_positive = false;
    for (int i = 0; i < 1000; ++i) {
        std::int64_t v = r.uniformInt(kMin, kMax);
        saw_negative |= v < 0;
        saw_positive |= v > 0;
    }
    EXPECT_TRUE(saw_negative);
    EXPECT_TRUE(saw_positive);

    // The full-range draw consumes exactly one raw draw, offset from
    // lo in wrap-around arithmetic (lo + raw mod 2^64, i.e. the raw
    // sample with its top bit flipped for lo = INT64_MIN).
    Rng a(99), b(99);
    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(a.uniformInt(kMin, kMax),
                  static_cast<std::int64_t>(b.next() ^ (1ull << 63)));
    }
}

TEST(Rng, UniformIntNearBoundaryRanges)
{
    Rng r(31337);
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

    // Degenerate single-value ranges at both extremes.
    EXPECT_EQ(r.uniformInt(kMin, kMin), kMin);
    EXPECT_EQ(r.uniformInt(kMax, kMax), kMax);

    // Small windows touching each boundary: every draw in range and
    // every value reachable.
    bool hit_lo[4] = {}, hit_hi[4] = {};
    for (int i = 0; i < 400; ++i) {
        std::int64_t lo = r.uniformInt(kMin, kMin + 3);
        ASSERT_GE(lo, kMin);
        ASSERT_LE(lo, kMin + 3);
        hit_lo[lo - kMin] = true;
        std::int64_t hi = r.uniformInt(kMax - 3, kMax);
        ASSERT_GE(hi, kMax - 3);
        ASSERT_LE(hi, kMax);
        hit_hi[kMax - hi] = true;
    }
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(hit_lo[i]) << i;
        EXPECT_TRUE(hit_hi[i]) << i;
    }

    // A window spanning most of the domain (width > INT64_MAX but not
    // the full 2^64): results stay in range.
    for (int i = 0; i < 400; ++i) {
        std::int64_t v = r.uniformInt(kMin + 1, kMax - 1);
        ASSERT_GE(v, kMin + 1);
        ASSERT_LE(v, kMax - 1);
    }
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
    double sum = 0.0, sq = 0.0;
    const int n = 300000;
    for (int i = 0; i < n; ++i) {
        double x = r.lognormal(target_mean, target_cv);
        ASSERT_GT(x, 0.0);
        sum += x;
        sq += x * x;
    }
    double mean = sum / n;
    double cv = std::sqrt(sq / n - mean * mean) / mean;
    EXPECT_NEAR(mean, target_mean, target_mean * 0.02);
    EXPECT_NEAR(cv, target_cv, 0.02);
}

TEST(Rng, LognormalZeroCvIsDeterministic)
{
    Rng r(1);
    EXPECT_DOUBLE_EQ(r.lognormal(5.0, 0.0), 5.0);
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

TEST(Rng, BatchedDrawsMatchSequentialBitForBit)
{
    // A hoisted parameter setup must not change the stream: a
    // Lognormal solved once produces what the re-solving
    // single-sample calls produce, with the same raw-draw
    // consumption.  Checked with EXPECT_EQ on doubles, i.e.
    // bit-for-bit.
    constexpr std::size_t n = 4096;
    std::vector<double> hoisted(n), sequential(n), formula(n);

    const struct
    {
        std::uint64_t seed;
        double mean, cv;
    } cases[] = {{13, 8.7, 0.4}, {29, 0.25, 0.25}, {31, 1234.5, 1.5},
                 {37, 3.0, 1e-3}};
    for (const auto &c : cases) {
        Rng a(c.seed), b(c.seed), ref(c.seed);
        const Rng::Lognormal dist = Rng::Lognormal::fromMeanCv(c.mean, c.cv);
        // The solve the simulator has always run, written out.
        const double sigma2 = std::log(1.0 + c.cv * c.cv);
        const double mu = std::log(c.mean) - 0.5 * sigma2;
        const double sigma = std::sqrt(sigma2);
        for (std::size_t i = 0; i < n; ++i) {
            hoisted[i] = a.lognormal(dist);
            sequential[i] = b.lognormal(c.mean, c.cv);
            formula[i] = std::exp(ref.normal(mu, sigma));
        }
        EXPECT_EQ(hoisted, sequential) << "mean " << c.mean << " cv " << c.cv;
        EXPECT_EQ(hoisted, formula) << "mean " << c.mean << " cv " << c.cv;
        EXPECT_EQ(a.next(), b.next()) << "draw counts diverged";
    }
    {
        // cv == 0 degenerates to the constant mean without drawing.
        Rng a(17), b(17);
        EXPECT_EQ(a.lognormal(3.0, 0.0), 3.0);
        EXPECT_EQ(a.next(), b.next()) << "a zero-cv draw consumed the stream";
    }

    // Interleaving per-kernel draws of two kernels with the
    // re-solving path continues one stream.
    Rng interleaved(23), plain(23);
    const Rng::Lognormal k1 = Rng::Lognormal::fromMeanCv(2.0, 0.3);
    const Rng::Lognormal k2 = Rng::Lognormal::fromMeanCv(40.0, 0.25);
    for (std::size_t i = 0; i < n; ++i) {
        bool first = i % 3 != 0;
        double x = interleaved.lognormal(first ? k1 : k2);
        double y = first ? plain.lognormal(2.0, 0.3)
                         : plain.lognormal(40.0, 0.25);
        ASSERT_EQ(x, y) << "draw " << i;
        if (i % 7 == 0) {
            ASSERT_EQ(interleaved.exponential(5.0), plain.exponential(5.0));
        }
    }
    EXPECT_EQ(interleaved.lognormal(k1), plain.lognormal(2.0, 0.3));
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
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        Rng r(seed);
        for (int i = 0; i < 2000; ++i) {
            double z = r.normal();
            ASSERT_TRUE(std::isfinite(z)) << "seed " << seed;
            double x = r.lognormal(10.0, 0.25);
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
    EXPECT_THROW(r.lognormal(-1.0, 0.5), sim::PanicError);
    EXPECT_THROW(r.lognormal(1.0, -0.5), sim::PanicError);
    EXPECT_THROW(Rng::Lognormal::fromMeanCv(0.0, 0.5), sim::PanicError);
    EXPECT_THROW(Rng::Lognormal::fromMeanCv(1.0, 0.0), sim::PanicError);
    EXPECT_THROW(r.exponential(0.0), sim::PanicError);
}
