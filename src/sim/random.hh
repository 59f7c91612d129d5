/**
 * @file
 * Deterministic pseudo-random number generation for simulations.
 *
 * The simulator must be reproducible: the same seed must produce the
 * same schedule on every platform and standard library.  We therefore
 * avoid std::{mt19937,distributions} (whose outputs are not pinned
 * across implementations for all distributions) and implement
 * xoshiro256** plus the handful of distributions the models need.
 *
 * Every distribution consumes a FIXED number of raw draws per sample
 * (uniform/exponential: 1, normal/lognormal: 2), so a draw never
 * shifts the stream position of the draws after it by a
 * value-dependent amount.
 */

#ifndef GPUMP_SIM_RANDOM_HH
#define GPUMP_SIM_RANDOM_HH

#include <array>
#include <cmath>
#include <cstdint>

namespace gpump {
namespace sim {

/**
 * xoshiro256** generator (Blackman & Vigna) with SplitMix64 seeding.
 *
 * Fast, high-quality and fully portable.  One instance per simulation;
 * components draw from the simulation's generator so that a single
 * seed pins the entire run.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Re-seed in place, restoring a deterministic state. */
    void seed(std::uint64_t seed);

    /** Next raw 64-bit value. */
    std::uint64_t next()
    {
        std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        std::uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);

        return result;
    }

    /** Uniform double in [0, 1). */
    double uniform()
    {
        // 53 random mantissa bits -> double in [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /**
     * Uniform integer in [0, n).
     *
     * Uses rejection sampling, so the result is exactly uniform.
     * @pre n > 0
     */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Standard normal via Box-Muller (deterministic, no cache). */
    double normal()
    {
        // Box-Muller; both uniforms are drawn every call and a zero u1
        // is remapped (not redrawn), so the raw-draw stream consumed
        // per sample is fixed — the invariant the reproducibility
        // contract relies on — and the result is finite for every
        // possible draw.
        double u1 = uniform();
        double u2 = uniform();
        return boxMuller(u1, u2);
    }

    /** Normal with the given mean and standard deviation. */
    double normal(double mean, double stddev)
    {
        return mean + stddev * normal();
    }

    /**
     * The Box-Muller transform on two unit-interval draws.
     *
     * A zero @p u1 (which uniform() produces with probability 2^-53)
     * is remapped to 2^-53, the smallest nonzero value uniform() can
     * return, so the logarithm — and therefore normal(), lognormal()
     * and every duration sampled from them — can never be infinite.
     * The remap (rather than a rejection loop) keeps the per-sample
     * draw count fixed.
     */
    static double boxMuller(double u1, double u2)
    {
        return std::sqrt(-2.0 * std::log(nonzero(u1))) *
            std::cos(kTwoPi * u2);
    }

    /**
     * A lognormal's log-domain parameters (mu, sigma), solved once
     * from its *linear-domain* mean and coefficient of variation.
     *
     * This is the natural parameterisation for thread-block durations:
     * the mean is the calibrated duration from the kernel profile and
     * the CV expresses run-to-run variability.  A kernel solves its
     * distribution once per launch and draws every thread-block
     * duration from it.
     */
    struct Lognormal
    {
        double mu = 0.0;
        double sigma = 0.0;

        /** For LogN(mu, sigma^2): E = exp(mu + sigma^2/2) and
         *  CV^2 = exp(sigma^2) - 1.  @pre mean > 0, cv > 0 */
        static Lognormal fromMeanCv(double mean, double cv);
    };

    /** One sample of @p dist: exp(normal(mu, sigma)). */
    double lognormal(const Lognormal &dist)
    {
        return std::exp(normal(dist.mu, dist.sigma));
    }

    /** Exponential with the given mean. @pre mean > 0 */
    double exponential(double mean);

    /**
     * Fork a child generator with an independent stream.
     *
     * Used to give each process/workload its own stream so that adding
     * a component does not perturb the draws seen by the others.
     */
    Rng fork();

  private:
    static constexpr double kTwoPi = 2.0 * 3.14159265358979323846;
    /** Smallest nonzero value uniform() can return (53 mantissa bits). */
    static constexpr double kMinUniform = 0x1.0p-53;

    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /** Remap a zero unit-interval draw to the smallest nonzero one, so
     *  log(u) stays finite without a rejection loop (fixed draw
     *  count). */
    static double nonzero(double u) { return u > 0.0 ? u : kMinUniform; }

    std::array<std::uint64_t, 4> state_;
};

} // namespace sim
} // namespace gpump

#endif // GPUMP_SIM_RANDOM_HH
