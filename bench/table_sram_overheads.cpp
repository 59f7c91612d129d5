/**
 * @file
 * Regenerates the hardware-overhead accounting of Section 3.3: the
 * scheduling framework's on-chip SRAM bill.  The paper states that
 * command buffers, KSRT, SMST and the active queue together take less
 * than 0.5 KB, and the PTBQs take 21 KB (context-switch mechanism
 * only).
 *
 * Usage: table_sram_overheads [--csv] [--jsonl[=path]] [key=value ...]
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "core/tables.hh"
#include "harness/args.hh"
#include "harness/report.hh"
#include "workload/device.hh"

using namespace gpump;

namespace {

int
run(int argc, char **argv)
{
    harness::Args args(argc, argv, {"csv", "jsonl"});
    gpu::GpuParams params = gpu::GpuParams::fromConfig(args.config());
    workload::rejectUnreadKeys(args.config());
    core::FrameworkSramCosts c = core::frameworkSramCosts(params);

    harness::AsciiTable t({"Structure", "Entries", "Entry(bits)",
                           "Bytes"});
    int n = params.numSms;
    t.addRow({"Command buffers", harness::fmt(n, 0),
              harness::fmt(core::commandBufferEntryBits, 0),
              harness::fmt(static_cast<double>(c.commandBuffersBytes),
                           0)});
    t.addRow({"Active queue", harness::fmt(n, 0),
              harness::fmt(core::activeQueueEntryBits, 0),
              harness::fmt(static_cast<double>(c.activeQueueBytes), 0)});
    t.addRow({"KSRT", harness::fmt(n, 0),
              harness::fmt(core::ksrEntryBits, 0),
              harness::fmt(static_cast<double>(c.ksrtBytes), 0)});
    t.addRow({"SMST", harness::fmt(n, 0),
              harness::fmt(core::smstEntryBits, 0),
              harness::fmt(static_cast<double>(c.smstBytes), 0)});
    t.addSeparator();
    t.addRow({"PTBQ (ctx switch only)",
              harness::fmt(n, 0) + " x " +
                  harness::fmt(core::ptbqCapacityPerKernel(params), 0),
              harness::fmt(core::ptbqEntryBits, 0),
              harness::fmt(static_cast<double>(c.ptbqBytes), 0)});

    std::cout << "Scheduling framework SRAM overheads (Section 3.3)\n\n";
    bench::emitTable(
        t, args.hasFlag("csv"),
        bench::BenchOptions::jsonlPath(args, "table_sram_overheads"));
    std::cout << "\nCore structures total: " << c.coreBytes()
              << " B (paper: < 0.5 KB)\n";
    std::cout << "PTBQ total:            " << c.ptbqBytes << " B = "
              << harness::fmt(static_cast<double>(c.ptbqBytes) / 1024.0,
                              1)
              << " KB (paper: 21 KB)\n";
    std::cout << "Grand total with context-switch mechanism: "
              << c.totalBytes() << " B\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return harness::runMain(argc, argv, run);
}
