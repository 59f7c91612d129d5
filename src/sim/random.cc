#include "sim/random.hh"

#include <cmath>

#include "sim/logging.hh"

namespace gpump {
namespace sim {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed_value)
{
    seed(seed_value);
}

void
Rng::seed(std::uint64_t seed_value)
{
    std::uint64_t x = seed_value;
    for (auto &s : state_)
        s = splitmix64(x);
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    GPUMP_ASSERT(n > 0, "uniformInt: n must be positive");
    // Rejection sampling to remove modulo bias.
    std::uint64_t threshold = (0 - n) % n;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % n;
    }
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    GPUMP_ASSERT(lo <= hi, "uniformInt: empty range [%lld, %lld]",
                 static_cast<long long>(lo), static_cast<long long>(hi));
    // The width hi - lo + 1 can exceed INT64_MAX (and the naive
    // signed subtraction overflows, which is UB); do all range
    // arithmetic in uint64, where wrap-around is defined and the
    // width is exact.  A span of 0 means the range covers the entire
    // 64-bit domain, so any raw draw is a valid sample.
    std::uint64_t span = static_cast<std::uint64_t>(hi) -
        static_cast<std::uint64_t>(lo) + 1;
    std::uint64_t offset = span == 0 ? next() : uniformInt(span);
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                     offset);
}

Rng::Lognormal
Rng::Lognormal::fromMeanCv(double mean, double cv)
{
    GPUMP_ASSERT(mean > 0.0, "lognormal: mean must be positive");
    GPUMP_ASSERT(cv > 0.0, "lognormal: cv must be positive");
    double sigma2 = std::log(1.0 + cv * cv);
    return Lognormal{std::log(mean) - 0.5 * sigma2, std::sqrt(sigma2)};
}

double
Rng::lognormal(double mean, double cv)
{
    GPUMP_ASSERT(mean > 0.0, "lognormal: mean must be positive");
    GPUMP_ASSERT(cv >= 0.0, "lognormal: cv must be non-negative");
    if (cv == 0.0)
        return mean;
    return lognormal(Lognormal::fromMeanCv(mean, cv));
}

double
Rng::exponential(double mean)
{
    GPUMP_ASSERT(mean > 0.0, "exponential: mean must be positive");
    return -mean * std::log(nonzero(uniform()));
}

Rng
Rng::fork()
{
    // Derive a child seed from the parent stream; the child is then
    // seeded through SplitMix64 so the streams are decorrelated.
    return Rng(next() ^ 0xd1b54a32d192ed03ull);
}

} // namespace sim
} // namespace gpump
