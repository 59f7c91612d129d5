#include "trace/kernel_profile.hh"

namespace gpump {
namespace trace {

KernelProfile
makeProfile(const std::string &name, int num_tbs, double tb_us,
            int regs_per_tb, int shmem_per_tb, int threads_per_tb)
{
    KernelProfile k;
    k.benchmark = "synthetic";
    k.kernel = name;
    k.numThreadBlocks = num_tbs;
    k.timePerTbUs = tb_us;
    k.avgTimeUs = tb_us * num_tbs;
    k.sharedMemPerTb = shmem_per_tb;
    k.regsPerTb = regs_per_tb;
    k.threadsPerTb = threads_per_tb;
    return k;
}

} // namespace trace
} // namespace gpump
