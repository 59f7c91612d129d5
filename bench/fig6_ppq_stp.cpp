/**
 * @file
 * Regenerates Figure 6: system throughput (STP) degradation of the
 * preemptive priority-queue schedulers relative to NPQ, for (a) the
 * exclusive-access scheme and (b) the shared-access scheme that
 * back-fills free SMs with low-priority kernels.
 *
 * Same workloads as Figure 5 (one high-priority process per random
 * workload; NPQ on the transfer engine throughout).
 *
 * Usage: fig6_ppq_stp [--quick] [--per-bench=N] [--replays=N]
 *                     [--seed=N] [--sizes=2,4,...] [--jobs=N]
 *                     [--csv] [--jsonl[=path]] [key=value ...]
 */

#include <iostream>
#include <map>
#include <vector>

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
    BenchOptions opt = BenchOptions::fromArgs(args, "fig6_ppq_stp");

    harness::Suite suite("fig6");
    suite.sizes(opt.sizes)
        .prioritized(opt.perBench, opt.seed)
        .minReplays(opt.replays)
        .scheme("NPQ", {"npq", "context_switch", "priority"})
        .scheme("excl/CS", {"ppq_excl", "context_switch", "priority"})
        .scheme("excl/Drain", {"ppq_excl", "draining", "priority"})
        .scheme("shared/CS",
                {"ppq_shared", "context_switch", "priority"})
        .scheme("shared/Drain", {"ppq_shared", "draining", "priority"});
    harness::Batch batch = suite.build();

    harness::Runner runner(figureConfig(args), opt.jobs);
    opt.configureRunner(runner);
    runner.setProgress(progressMeter("fig6"));
    auto results = bench::runAll(runner, batch.requests);

    // degradation[size][scheme] -> samples of STP_npq / STP_scheme.
    const std::size_t nschemes = 4;
    std::map<int, std::vector<std::vector<double>>> degradation;

    for (std::size_t si = 0; si < batch.sizes.size(); ++si) {
        auto &buckets = degradation[batch.sizes[si]];
        buckets.resize(nschemes);
        for (std::size_t pi = 0; pi < batch.numPlans(si); ++pi) {
            double stp_npq =
                results[batch.indexOf(si, pi, 0)].metrics.stp;
            for (std::size_t s = 0; s < nschemes; ++s) {
                double stp = results[batch.indexOf(si, pi, s + 1)]
                                 .metrics.stp;
                buckets[s].push_back(stp_npq / stp);
            }
        }
    }

    auto emit = [&](const char *title, std::size_t cs_idx,
                    std::size_t drain_idx) {
        harness::AsciiTable t(
            {"Procs", "PPQ Context Switch", "PPQ Draining"});
        for (int size : opt.sizes) {
            t.addRow({harness::fmt(size, 0),
                      harness::fmtTimes(
                          meanOrZero(degradation[size][cs_idx])),
                      harness::fmtTimes(
                          meanOrZero(degradation[size][drain_idx]))});
        }
        std::cout << title << "\n\n";
        emitTable(t, opt.csv);
        std::cout << "\n";
    };

    std::cout << "Figure 6: STP degradation over NPQ (higher = more "
                 "throughput lost)\n\n";
    emit("(a) Exclusive access for the high-priority process:", 0, 1);
    emit("(b) Shared access (low-priority back-filling):", 2, 3);
    if (!opt.jsonl.empty())
        harness::writeResultsJsonl(opt.jsonl, batch, results);
    std::cout << "Paper shape: exclusive CS ~1.08-1.12x, exclusive "
                 "draining ~1.09-1.38x;\nthe shared scheme degrades "
                 "more than the exclusive one (preempted backfills\n"
                 "waste work).\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return harness::runMain(argc, argv, run);
}
