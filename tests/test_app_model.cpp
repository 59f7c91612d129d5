/** Tests of the BenchmarkSpec/TraceOp application model. */

#include <gtest/gtest.h>

#include <string>

#include "sim/logging.hh"
#include "sim/types.hh"
#include "trace/app_model.hh"

using namespace gpump;
using namespace gpump::trace;

namespace {

KernelProfile
makeKernel(const std::string &name, int launches)
{
    KernelProfile k;
    k.benchmark = "bench";
    k.kernel = name;
    k.launches = launches;
    k.numThreadBlocks = 8;
    k.timePerTbUs = 25.0;
    k.regsPerTb = 4096;
    k.sharedMemPerTb = 8192;
    k.threadsPerTb = 256;
    return k;
}

TraceOp
launchOp(int index)
{
    TraceOp op;
    op.kind = TraceOp::Kind::KernelLaunch;
    op.kernelIndex = index;
    return op;
}

TraceOp
copyOp(TraceOp::Kind kind, std::int64_t bytes)
{
    TraceOp op;
    op.kind = kind;
    op.bytes = bytes;
    return op;
}

TraceOp
cpuOp(sim::SimTime duration)
{
    TraceOp op;
    op.kind = TraceOp::Kind::CpuPhase;
    op.duration = duration;
    return op;
}

} // namespace

TEST(AppModel, DurationClassNames)
{
    EXPECT_STREQ(durationClassName(DurationClass::Short), "SHORT");
    EXPECT_STREQ(durationClassName(DurationClass::Medium), "MEDIUM");
    EXPECT_STREQ(durationClassName(DurationClass::Long), "LONG");
}

TEST(AppModel, AggregatesSumCopiesPerDirection)
{
    BenchmarkSpec spec;
    spec.ops.push_back(copyOp(TraceOp::Kind::MemcpyH2D, 100));
    spec.ops.push_back(copyOp(TraceOp::Kind::MemcpyH2D, 50));
    spec.ops.push_back(copyOp(TraceOp::Kind::MemcpyD2H, 30));
    spec.ops.push_back(copyOp(TraceOp::Kind::MemcpyD2H, 7));

    EXPECT_EQ(spec.bytesH2D(), 150);
    EXPECT_EQ(spec.bytesD2H(), 37);
}

TEST(AppModel, CpuTimeSumsAllPhases)
{
    BenchmarkSpec spec;
    spec.ops.push_back(cpuOp(sim::microseconds(100)));
    spec.ops.push_back(copyOp(TraceOp::Kind::MemcpyH2D, 10));
    spec.ops.push_back(cpuOp(sim::microseconds(250)));
    EXPECT_EQ(spec.cpuTime(), sim::microseconds(350));
}

TEST(AppModel, TotalLaunchesCountsOnlyLaunchOps)
{
    BenchmarkSpec spec;
    spec.kernels.push_back(makeKernel("k0", 2));
    spec.ops.push_back(launchOp(0));
    spec.ops.push_back(copyOp(TraceOp::Kind::MemcpyD2H, 10));
    spec.ops.push_back(launchOp(0));
    EXPECT_EQ(spec.totalLaunches(), 2);
}

TEST(AppModel, ValidateAcceptsConsistentSpec)
{
    BenchmarkSpec spec;
    spec.name = "bench";
    spec.kernels.push_back(makeKernel("k0", 2));
    spec.kernels.push_back(makeKernel("k1", 1));
    spec.ops.push_back(launchOp(0));
    spec.ops.push_back(launchOp(1));
    spec.ops.push_back(launchOp(0));
    EXPECT_NO_THROW(spec.validate());
}

TEST(AppModel, ValidateRejectsOutOfRangeKernelIndex)
{
    BenchmarkSpec spec;
    spec.name = "bench";
    spec.kernels.push_back(makeKernel("k0", 1));
    spec.ops.push_back(launchOp(3));
    EXPECT_THROW(spec.validate(), sim::FatalError);
}

TEST(AppModel, ValidateRejectsNegativeQuantities)
{
    {
        BenchmarkSpec spec;
        spec.name = "bench";
        spec.ops.push_back(cpuOp(-1));
        EXPECT_THROW(spec.validate(), sim::FatalError);
    }
    {
        BenchmarkSpec spec;
        spec.name = "bench";
        spec.ops.push_back(copyOp(TraceOp::Kind::MemcpyH2D, -8));
        EXPECT_THROW(spec.validate(), sim::FatalError);
    }
}

TEST(AppModel, ValidateRejectsLaunchCountMismatch)
{
    BenchmarkSpec spec;
    spec.name = "bench";
    spec.kernels.push_back(makeKernel("k0", 3));
    spec.ops.push_back(launchOp(0));
    EXPECT_THROW(spec.validate(), sim::FatalError);
}

TEST(AppModel, ContextBytesCombineRegistersAndSharedMemory)
{
    KernelProfile k = makeKernel("k0", 1);
    EXPECT_EQ(k.contextBytesPerTb(),
              bytesPerRegister * k.regsPerTb + k.sharedMemPerTb);
    EXPECT_EQ(k.tbDuration(), sim::microseconds(k.timePerTbUs));
    EXPECT_EQ(k.fullName(), "bench.k0");
}
