#include "predict/bore_burst.hh"

#include <limits>

#include "core/framework.hh"
#include "sim/logging.hh"

namespace gpump {
namespace predict {

BoreBurstPolicy::BoreBurstPolicy(int smoothness, int max_offset,
                                 double decay_us)
    : PpqPolicy(/*exclusive=*/false),
      burst_(smoothness, max_offset, decay_us)
{
}

void
BoreBurstPolicy::bind(core::SchedulingFramework &fw)
{
    PpqPolicy::bind(fw);
    fw.addObserver(&burst_);
}

int
BoreBurstPolicy::penaltyOf(const gpu::KernelExec *k) const
{
    return burst_.burstScore(k->ctx(), fw_->sim().now());
}

int
BoreBurstPolicy::effectivePriority(const gpu::KernelExec *k) const
{
    return k->priority() - penaltyOf(k);
}

// --------------------------------------------------------- registry

core::PolicyRegistry::Descriptor
boreBurstDescriptor()
{
    core::PolicyRegistry::Descriptor d;
    d.name = "bore_burst";
    d.doc = "Preemptive priority queues with BORE-style burstiness "
            "demotion: a context's observed kernel service times "
            "lower its effective priority by the log2 bucket of its "
            "smoothed burst length, decaying while it idles";
    d.configPrefix = "bore";
    d.tunables = {
        {"bore.smoothness", core::TunableType::Int, "2",
         "EWMA shift of the burst average: each kernel moves it by "
         "1/2^smoothness of the error (0..62)"},
        {"bore.max_offset", core::TunableType::Int, "8",
         "cap on the burst-score priority demotion (0..INT_MAX)"},
        {"bore.decay_us", core::TunableType::Double, "2000",
         "idle time per bucket of burst-score decay, microseconds "
         "(> 0)"},
    };
    d.factory = [](const sim::Config &cfg) {
        // Range-check before narrowing: the estimator shifts an
        // int64 by the smoothness, and a wrapped value would
        // silently run as a different one.
        std::int64_t smoothness = cfg.getInt("bore.smoothness", 2);
        if (smoothness < 0 || smoothness > 62)
            sim::fatal("bore.smoothness must be in [0, 62], got %lld",
                       static_cast<long long>(smoothness));
        std::int64_t max_offset = cfg.getInt("bore.max_offset", 8);
        if (max_offset < 0 || max_offset > std::numeric_limits<int>::max())
            sim::fatal("bore.max_offset must be in [0, %d], got %lld",
                       std::numeric_limits<int>::max(),
                       static_cast<long long>(max_offset));
        double decay_us = cfg.getDouble("bore.decay_us", 2000.0);
        if (decay_us <= 0)
            sim::fatal("bore.decay_us must be positive");
        return std::make_unique<BoreBurstPolicy>(
            static_cast<int>(smoothness), static_cast<int>(max_offset),
            decay_us);
    };
    return d;
}

} // namespace predict

} // namespace gpump
