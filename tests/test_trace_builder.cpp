/** Tests of the fluent trace builder used by parboil.cc and examples. */

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "sim/types.hh"
#include "trace/app_model.hh"
#include "trace/trace_builder.hh"

using namespace gpump;
using namespace gpump::trace;

namespace {

KernelProfile
makeKernel(const std::string &name, int launches)
{
    KernelProfile k;
    k.benchmark = "testbench";
    k.kernel = name;
    k.launches = launches;
    k.numThreadBlocks = 4;
    k.timePerTbUs = 10.0;
    k.regsPerTb = 2048;
    k.sharedMemPerTb = 4096;
    k.threadsPerTb = 128;
    return k;
}

} // namespace

TEST(TraceBuilder, AppendsOpsInCallOrder)
{
    BenchmarkSpec spec;
    spec.kernels.push_back(makeKernel("k0", 1));

    TraceBuilder(spec)
        .cpu(300)
        .h2d(mib(2))
        .launch(0)
        .sync()
        .d2h(kib(256));

    ASSERT_EQ(spec.ops.size(), 5u);
    EXPECT_EQ(spec.ops[0].kind, TraceOp::Kind::CpuPhase);
    EXPECT_EQ(spec.ops[1].kind, TraceOp::Kind::MemcpyH2D);
    EXPECT_EQ(spec.ops[2].kind, TraceOp::Kind::KernelLaunch);
    EXPECT_EQ(spec.ops[3].kind, TraceOp::Kind::DeviceSync);
    EXPECT_EQ(spec.ops[4].kind, TraceOp::Kind::MemcpyD2H);
}

TEST(TraceBuilder, CpuPhaseIsConvertedToNanoseconds)
{
    BenchmarkSpec spec;
    TraceBuilder(spec).cpu(300);
    ASSERT_EQ(spec.ops.size(), 1u);
    EXPECT_EQ(spec.ops[0].duration, sim::microseconds(300));
}

TEST(TraceBuilder, CopiesRecordDirectionAndBytes)
{
    BenchmarkSpec spec;
    TraceBuilder(spec).h2d(kib(1)).d2h(kib(2));

    ASSERT_EQ(spec.ops.size(), 2u);
    EXPECT_EQ(spec.ops[0].kind, TraceOp::Kind::MemcpyH2D);
    EXPECT_EQ(spec.ops[1].kind, TraceOp::Kind::MemcpyD2H);
    EXPECT_EQ(spec.ops[0].bytes, kib(1));
    EXPECT_EQ(spec.ops[1].bytes, kib(2));
}

TEST(TraceBuilder, LaunchRecordsKernelIndex)
{
    BenchmarkSpec spec;
    spec.kernels.push_back(makeKernel("k0", 1));
    spec.kernels.push_back(makeKernel("k1", 1));

    TraceBuilder(spec).launch(1).launch(0);

    ASSERT_EQ(spec.ops.size(), 2u);
    EXPECT_EQ(spec.ops[0].kernelIndex, 1);
    EXPECT_EQ(spec.ops[1].kernelIndex, 0);
}

TEST(TraceBuilder, LaunchOfUnknownKernelPanics)
{
    // GPUMP_ASSERT flags internal bugs, so it raises PanicError
    // (std::logic_error), not the user-facing FatalError.
    BenchmarkSpec spec;
    spec.kernels.push_back(makeKernel("k0", 1));
    EXPECT_THROW(TraceBuilder(spec).launch(1), sim::PanicError);
    EXPECT_THROW(TraceBuilder(spec).launch(-1), sim::PanicError);
}

TEST(TraceBuilder, NegativeCpuPhasePanics)
{
    BenchmarkSpec spec;
    EXPECT_THROW(TraceBuilder(spec).cpu(-1.0), sim::PanicError);
}

TEST(TraceBuilder, ByteHelpersMatchBinaryUnits)
{
    EXPECT_EQ(kib(1), 1024);
    EXPECT_EQ(kib(256), 256 * 1024);
    EXPECT_EQ(mib(1), 1024 * 1024);
    EXPECT_EQ(mib(2), 2 * 1024 * 1024);
}

TEST(TraceBuilder, BuiltTraceSatisfiesSpecValidation)
{
    BenchmarkSpec spec;
    spec.name = "testbench";
    spec.kernels.push_back(makeKernel("k0", 2));
    spec.kernels.push_back(makeKernel("k1", 1));

    TraceBuilder(spec)
        .cpu(100)
        .h2d(mib(1))
        .launch(0)
        .launch(1)
        .launch(0)
        .sync()
        .d2h(mib(1));

    EXPECT_NO_THROW(spec.validate());
    EXPECT_EQ(spec.totalLaunches(), 3);
    EXPECT_EQ(spec.bytesH2D(), mib(1));
    EXPECT_EQ(spec.bytesD2H(), mib(1));
    EXPECT_EQ(spec.cpuTime(), sim::microseconds(100));
}

TEST(TraceBuilder, LaunchCountMismatchFailsSpecValidation)
{
    BenchmarkSpec spec;
    spec.name = "testbench";
    spec.kernels.push_back(makeKernel("k0", 2));

    TraceBuilder(spec).launch(0); // Table says 2 launches, trace has 1.

    EXPECT_THROW(spec.validate(), sim::FatalError);
}
