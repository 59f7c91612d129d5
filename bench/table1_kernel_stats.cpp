/**
 * @file
 * Regenerates Table 1 of the paper: statistics of all 24 kernels of
 * the benchmark suite.  The launch counts, grid sizes, per-TB times
 * and resource demands are model inputs (transcribed from the paper);
 * the occupancy (TBs/SM), the SM resource fraction and the projected
 * context save time are *derived* by the library's occupancy and
 * context models and must match the published values.
 *
 * Usage: table1_kernel_stats [--csv] [--jsonl[=path]] [key=value ...]
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "gpu/gpu_config.hh"
#include "harness/args.hh"
#include "harness/report.hh"
#include "memory/gpu_memory.hh"
#include "sim/stats.hh"
#include "trace/parboil.hh"
#include "workload/device.hh"

using namespace gpump;

namespace {

int
run(int argc, char **argv)
{
    harness::Args args(argc, argv, {"csv", "jsonl"});
    gpu::GpuParams params = gpu::GpuParams::fromConfig(args.config());
    sim::StatRegistry reg;
    memory::GpuMemory gmem(
        reg, memory::GpuMemoryParams::fromConfig(args.config()));
    workload::rejectUnreadKeys(args.config());

    harness::AsciiTable t({"Benchmark", "Kernel", "Launches",
                           "AvgTime(us)", "TBs", "Time/TB(us)",
                           "ShMem/TB(B)", "Regs/TB", "Thr/TB",
                           "TBs/SM", "Resour(%)", "Save(us)", "Class1",
                           "Class2"});

    for (const auto &bench : trace::parboilSuite()) {
        for (const auto &k : bench.kernels) {
            int occ = gpu::maxTbsPerSm(k, params);
            double resour = 100.0 * gpu::smResourceFraction(k, params);
            sim::SimTime save = gmem.moveTime(
                gpu::smContextBytes(k, params), params.numSms);
            t.addRow({bench.name + " [" + bench.dataset + "]",
                      k.kernel, harness::fmt(k.launches, 0),
                      harness::fmt(k.avgTimeUs, 2),
                      harness::fmt(k.numThreadBlocks, 0),
                      harness::fmt(k.timePerTbUs, 2),
                      harness::fmt(k.sharedMemPerTb, 0),
                      harness::fmt(k.regsPerTb, 0),
                      harness::fmt(k.threadsPerTb, 0),
                      harness::fmt(occ, 0), harness::fmt(resour, 2),
                      harness::fmt(sim::toMicroseconds(save), 2),
                      trace::durationClassName(bench.kernelClass),
                      trace::durationClassName(bench.appClass)});
        }
        t.addSeparator();
    }

    std::cout << "Table 1: statistics of all kernels from the "
                 "benchmark applications\n"
                 "(TBs/SM, Resour(%) and Save(us) are derived by the "
                 "occupancy/context models)\n\n";
    bench::emitTable(
        t, args.hasFlag("csv"),
        bench::BenchOptions::jsonlPath(args, "table1_kernel_stats"));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return harness::runMain(argc, argv, run);
}
