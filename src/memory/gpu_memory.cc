#include "memory/gpu_memory.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace gpump {
namespace memory {

GpuMemoryParams
GpuMemoryParams::fromConfig(const sim::Config &cfg)
{
    GpuMemoryParams p;
    p.bandwidth = cfg.getDouble("gmem.bandwidth", p.bandwidth);
    p.capacity = cfg.getInt("gmem.capacity", p.capacity);
    p.contendedSwitch =
        cfg.getBool("gmem.contended_switch", p.contendedSwitch);
    if (p.bandwidth <= 0 || p.capacity <= 0)
        sim::fatal("invalid GPU memory parameters");
    return p;
}

GpuMemory::GpuMemory(sim::StatRegistry &stats, const GpuMemoryParams &params)
    : params_(params),
      peakAllocated_(stats, "gmem.peak_allocated", "peak bytes allocated"),
      allocCalls_(stats, "gmem.alloc_calls", "number of allocations")
{
}

void
GpuMemory::allocate(sim::ContextId ctx, std::int64_t bytes)
{
    GPUMP_ASSERT(bytes >= 0, "negative allocation");
    // total_ <= capacity and both operands are non-negative, so the
    // subtraction cannot overflow; the natural `total_ + bytes` form
    // can, for adversarial capacity/allocation pairs (signed overflow
    // is UB and would let an oversized allocation through).
    if (bytes > params_.capacity - total_) {
        sim::fatal("GPU out of memory: %lld + %lld exceeds capacity %lld",
                   static_cast<long long>(total_),
                   static_cast<long long>(bytes),
                   static_cast<long long>(params_.capacity));
    }
    perContext_[ctx] += bytes;
    total_ += bytes;
    ++allocCalls_;
    peakAllocated_.set(
        std::max(peakAllocated_.value(), static_cast<double>(total_)));
}

void
GpuMemory::freeAll(sim::ContextId ctx)
{
    auto it = perContext_.find(ctx);
    if (it == perContext_.end())
        return;
    total_ -= it->second;
    perContext_.erase(it);
}

std::int64_t
GpuMemory::allocated(sim::ContextId ctx) const
{
    auto it = perContext_.find(ctx);
    return it == perContext_.end() ? 0 : it->second;
}

double
GpuMemory::bandwidthShare(int shares) const
{
    GPUMP_ASSERT(shares > 0, "bandwidth share of %d consumers", shares);
    return params_.bandwidth / static_cast<double>(shares);
}

sim::SimTime
GpuMemory::moveTime(std::int64_t bytes, int shares) const
{
    GPUMP_ASSERT(bytes >= 0, "moveTime of %lld bytes",
                 static_cast<long long>(bytes));
    return sim::transferTime(static_cast<double>(bytes),
                             bandwidthShare(shares));
}

} // namespace memory
} // namespace gpump
