/**
 * @file
 * Regenerates Table 2 of the paper: the simulation parameters of the
 * modelled platform (CPU, PCIe bus, GPU).  Values come from the live
 * parameter structs, so any key=value override on the command line is
 * reflected — the printed table is always what the simulator actually
 * uses.
 *
 * Usage: table2_sim_params [--csv] [--jsonl[=path]] [key=value ...]
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "gpu/gpu_config.hh"
#include "harness/args.hh"
#include "harness/report.hh"
#include "memory/gpu_memory.hh"
#include "memory/pcie.hh"
#include "workload/host_cpu.hh"

using namespace gpump;

namespace {

int
run(int argc, char **argv)
{
    harness::Args args(argc, argv, {"csv", "jsonl"});
    const sim::Config &cfg = args.config();
    auto gpu_params = gpu::GpuParams::fromConfig(cfg);
    auto pcie = memory::PcieParams::fromConfig(cfg);
    auto gmem = memory::GpuMemoryParams::fromConfig(cfg);
    auto cpu = workload::CpuParams::fromConfig(cfg);

    harness::AsciiTable t({"Component", "Parameter", "Value"});
    t.addRow({"CPU", "Clock", harness::fmt(cpu.clockGhz, 1) + " GHz"});
    t.addRow({"CPU", "Cores", harness::fmt(cpu.cores, 0)});
    t.addRow({"CPU", "Threading",
              harness::fmt(cpu.threadsPerCore, 0) + "-way"});
    t.addSeparator();
    t.addRow({"PCIe Bus", "Clock",
              harness::fmt(pcie.clockHz / 1e6, 0) + " MHz"});
    t.addRow({"PCIe Bus", "Lanes", harness::fmt(pcie.lanes, 0)});
    t.addRow({"PCIe Bus", "Burst",
              harness::fmt(static_cast<double>(pcie.burstBytes) / 1024,
                           0) +
                  " KB"});
    t.addSeparator();
    t.addRow({"GPU", "Clock",
              harness::fmt(gpu_params.clockGhz * 1000, 0) + " MHz"});
    t.addRow({"GPU", "Cores (SMs)",
              harness::fmt(gpu_params.numSms, 0) + " (" +
                  harness::fmt(gpu_params.pipelinesPerSm, 0) +
                  " pipelines each)"});
    t.addRow({"GPU", "Memory Bandwidth",
              harness::fmt(gmem.bandwidth / 1e9, 0) + " GB/s"});
    t.addRow({"GPU", "Registers (per SM)",
              harness::fmt(gpu_params.regsPerSm, 0)});
    t.addRow({"GPU", "Thread Blocks (per SM)",
              harness::fmt(gpu_params.maxTbSlotsPerSm, 0)});
    t.addRow({"GPU", "Threads (per SM)",
              harness::fmt(gpu_params.maxThreadsPerSm, 0)});
    {
        std::string cfgs;
        for (std::size_t i = 0; i < gpu_params.shmemConfigs.size();
             ++i) {
            cfgs += (i ? " / " : "") +
                harness::fmt(gpu_params.shmemConfigs[i] / 1024.0, 0) +
                "KB";
        }
        t.addRow({"GPU", "Shared memory (per SM)",
                  cfgs + " (default " +
                      harness::fmt(gpu_params.shmemConfigs.front() /
                                       1024.0,
                                   0) +
                      "KB)"});
    }

    std::cout << "Table 2: simulation parameters used in the "
                 "experimental evaluation\n\n";
    bench::emitTable(
        t, args.hasFlag("csv"),
        bench::BenchOptions::jsonlPath(args, "table2_sim_params"));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return harness::runMain(argc, argv, run);
}
