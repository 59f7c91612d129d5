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

Rng::Lognormal
Rng::Lognormal::fromMeanCv(double mean, double cv)
{
    GPUMP_ASSERT(mean > 0.0, "lognormal: mean must be positive");
    GPUMP_ASSERT(cv > 0.0, "lognormal: cv must be positive");
    double sigma2 = std::log(1.0 + cv * cv);
    return Lognormal{std::log(mean) - 0.5 * sigma2, std::sqrt(sigma2)};
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
