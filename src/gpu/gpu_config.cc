#include "gpu/gpu_config.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace gpump {
namespace gpu {

GpuParams
GpuParams::fromConfig(const sim::Config &cfg)
{
    GpuParams p;
    p.numSms = cfg.getInt32("gpu.num_sms", p.numSms);
    p.clockGhz = cfg.getDouble("gpu.clock_ghz", p.clockGhz);
    p.pipelinesPerSm =
        cfg.getInt32("gpu.pipelines_per_sm", p.pipelinesPerSm);
    p.regsPerSm = cfg.getInt32("gpu.regs_per_sm", p.regsPerSm);
    p.maxThreadsPerSm =
        cfg.getInt32("gpu.max_threads_per_sm", p.maxThreadsPerSm);
    p.maxTbSlotsPerSm =
        cfg.getInt32("gpu.max_tb_slots_per_sm", p.maxTbSlotsPerSm);
    p.smSetupLatency =
        cfg.getMicroseconds("gpu.sm_setup_us", p.smSetupLatency);
    p.contextLoadLatency =
        cfg.getMicroseconds("gpu.context_load_us", p.contextLoadLatency);
    p.pipelineDrainLatency = cfg.getMicroseconds(
        "gpu.pipeline_drain_us", p.pipelineDrainLatency);
    p.commandSubmitLatency = cfg.getMicroseconds(
        "gpu.command_submit_us", p.commandSubmitLatency);
    p.tbTimeCv = cfg.getDouble("gpu.tb_time_cv", p.tbTimeCv);
    p.numHwQueues = cfg.getInt32("gpu.num_hw_queues", p.numHwQueues);

    if (p.numSms <= 0 || p.regsPerSm <= 0 || p.maxThreadsPerSm <= 0 ||
        p.maxTbSlotsPerSm <= 0 || p.numHwQueues <= 0) {
        sim::fatal("invalid GPU parameters (counts must be positive)");
    }
    if (p.tbTimeCv < 0)
        sim::fatal("gpu.tb_time_cv must be non-negative");
    return p;
}

int
selectShmemConfig(const trace::KernelProfile &k, const GpuParams &p)
{
    GPUMP_ASSERT(!p.shmemConfigs.empty(), "no shared memory configurations");
    GPUMP_ASSERT(std::is_sorted(p.shmemConfigs.begin(),
                                p.shmemConfigs.end()),
                 "shared memory configurations must be ascending");
    for (int cfg : p.shmemConfigs) {
        if (k.sharedMemPerTb <= cfg)
            return cfg;
    }
    sim::fatal("kernel %s needs %d B of shared memory per TB; the largest "
               "SM configuration is %d B",
               k.fullName().c_str(), k.sharedMemPerTb,
               p.shmemConfigs.back());
}

int
maxTbsPerSm(const trace::KernelProfile &k, const GpuParams &p)
{
    GPUMP_ASSERT(k.threadsPerTb > 0, "kernel %s has no threads",
                 k.fullName().c_str());

    int limit = p.maxTbSlotsPerSm;
    if (k.regsPerTb > 0)
        limit = std::min(limit, p.regsPerSm / k.regsPerTb);
    if (k.sharedMemPerTb > 0) {
        int cfg = selectShmemConfig(k, p);
        limit = std::min(limit, cfg / k.sharedMemPerTb);
    }
    limit = std::min(limit, p.maxThreadsPerSm / k.threadsPerTb);

    if (limit <= 0) {
        sim::fatal("kernel %s does not fit on an SM (regs=%d shmem=%d "
                   "threads=%d)",
                   k.fullName().c_str(), k.regsPerTb, k.sharedMemPerTb,
                   k.threadsPerTb);
    }
    return limit;
}

std::int64_t
smContextBytes(const trace::KernelProfile &k, const GpuParams &p)
{
    return k.contextBytesPerTb() *
        static_cast<std::int64_t>(maxTbsPerSm(k, p));
}

double
smResourceFraction(const trace::KernelProfile &k, const GpuParams &p)
{
    double storage =
        static_cast<double>(p.regsPerSm) *
            static_cast<double>(trace::bytesPerRegister) +
        static_cast<double>(p.shmemConfigs.back());
    return static_cast<double>(smContextBytes(k, p)) / storage;
}

} // namespace gpu
} // namespace gpump
