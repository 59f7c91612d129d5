/**
 * @file
 * Ablation: reservation retargeting (Section 3.4).
 *
 * DSS allows the scheduler to change the kernel an SM is reserved
 * for while the preemption is still in flight ("This optimization
 * helps to cope with dynamic nature of the system and long latency
 * operations").  This bench runs the same DSS workloads with the
 * optimization on and off, for both mechanisms — draining's long
 * preemption latencies are where retargeting should matter.
 *
 * Usage: ablation_retarget [--workloads=N] [--replays=N] [--seed=N]
 *                          [--jobs=N] [--csv] [--jsonl[=path]]
 */

#include <iostream>

#include "bench/bench_util.hh"
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
        BenchOptions::fromArgs(args, "ablation_retarget");
    int nprocs = 6;

    sim::Config on_cfg, off_cfg;
    on_cfg.set("dss.retarget", true);
    off_cfg.set("dss.retarget", false);

    harness::Suite suite("ablation_retarget");
    suite
        .fixedPlans(workload::makeUniformPlans(nprocs, opt.workloads,
                                               opt.seed))
        .minReplays(opt.replays)
        .scheme("cs/on", {"dss", "context_switch", "fcfs"}, on_cfg)
        .scheme("cs/off", {"dss", "context_switch", "fcfs"}, off_cfg)
        .scheme("drain/on", {"dss", "draining", "fcfs"}, on_cfg)
        .scheme("drain/off", {"dss", "draining", "fcfs"}, off_cfg);
    harness::Batch batch = suite.build();

    harness::Runner runner(args.config(), opt.jobs);
    opt.configureRunner(runner);
    runner.setProgress(progressMeter("ablation_retarget"));
    auto results = bench::runAll(runner, batch.requests);

    harness::AsciiTable t({"mechanism", "retarget", "mean ANTT",
                           "mean STP", "mean fairness",
                           "preemptions/workload"});

    for (std::size_t ci = 0; ci < batch.schemes.size(); ++ci) {
        double antt = 0, stp = 0, fair = 0, preempts = 0;
        for (std::size_t pi = 0; pi < batch.numPlans(0); ++pi) {
            const auto &r = results[batch.indexOf(0, pi, ci)];
            antt += r.metrics.antt;
            stp += r.metrics.stp;
            fair += r.metrics.fairness;
            preempts += static_cast<double>(r.sys.preemptions);
        }
        double n = static_cast<double>(batch.numPlans(0));
        const auto &spec = batch.schemes[ci];
        t.addRow({spec.scheme.mechanism,
                  spec.overrides.getBool("dss.retarget", true)
                      ? "on"
                      : "off",
                  harness::fmt(antt / n), harness::fmt(stp / n),
                  harness::fmt(fair / n),
                  harness::fmt(preempts / n, 0)});
    }

    std::cout << "Ablation: DSS reservation retargeting (6-process "
                 "workloads)\n\n";
    emitTable(t, opt.csv, opt.jsonl);
    std::cout << "\nWithout retargeting, an SM drained for a kernel "
                 "that meanwhile finished or\nran out of work goes "
                 "through an extra idle/repartition round before it "
                 "is\nuseful again.\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return harness::runMain(argc, argv, run);
}
