#include "predict/burst.hh"

#include <algorithm>
#include <cmath>

#include "gpu/kernel_exec.hh"
#include "sim/logging.hh"

namespace gpump {
namespace predict {

BurstEstimator::BurstEstimator(int smoothness, int max_score,
                               double decay_us)
    : smoothness_(smoothness), maxScore_(max_score),
      decay_(sim::microseconds(decay_us))
{
    GPUMP_ASSERT(smoothness >= 0 && smoothness <= 62,
                 "burst smoothness %d outside [0, 62]", smoothness);
    GPUMP_ASSERT(max_score >= 0, "negative burst score cap");
    GPUMP_ASSERT(decay_ > 0, "non-positive burst decay interval");
}

void
BurstEstimator::kernelFinished(const gpu::KernelExec &k, sim::SimTime now)
{
    GPUMP_ASSERT(now >= k.firstIssuedAt, "kernel finished before it issued");
    auto idx = static_cast<std::size_t>(k.ctx());
    if (idx >= state_.size())
        state_.resize(idx + 1);
    State &s = state_[idx];
    double burst_us = sim::toMicroseconds(now - k.firstIssuedAt);
    if (!s.any) {
        s.avgUs = burst_us;
        s.any = true;
    } else {
        // bore.c-style binary-shift smoothing.
        s.avgUs += (burst_us - s.avgUs) /
            static_cast<double>(std::int64_t{1} << smoothness_);
    }
    s.lastFinish = now;
    ++observed_;
}

int
BurstEstimator::burstScore(sim::ContextId ctx, sim::SimTime now) const
{
    auto idx = static_cast<std::size_t>(ctx);
    if (ctx < 0 || idx >= state_.size() || !state_[idx].any)
        return 0;
    const State &s = state_[idx];
    int raw = static_cast<int>(std::floor(std::log2(1.0 + s.avgUs)));
    sim::SimTime idle = std::max<sim::SimTime>(0, now - s.lastFinish);
    auto decayed = static_cast<std::int64_t>(raw) - idle / decay_;
    return static_cast<int>(std::clamp<std::int64_t>(decayed, 0,
                                                     maxScore_));
}

double
BurstEstimator::avgBurstUs(sim::ContextId ctx) const
{
    auto idx = static_cast<std::size_t>(ctx);
    if (ctx < 0 || idx >= state_.size() || !state_[idx].any)
        return 0.0;
    return state_[idx].avgUs;
}

} // namespace predict
} // namespace gpump
