/**
 * @file
 * Regenerates Figure 5: turnaround-time improvement of the
 * high-priority process over its nonprioritized execution, for the
 * NPQ, PPQ/context-switch and PPQ/draining schedulers on 2/4/6/8
 * process workloads, grouped by the high-priority benchmark's kernel
 * length class (Table 1, Class 1).
 *
 * Methodology (Section 4.2): random workloads in which one process
 * has higher priority; every benchmark appears the same number of
 * times as the high-priority process; the transfer engine runs NPQ in
 * all prioritized cases; the baseline is the same workload with no
 * prioritization under FCFS.
 *
 * Usage: fig5_ppq_ntt [--quick] [--per-bench=N] [--replays=N]
 *                     [--seed=N] [--sizes=2,4,...] [--jobs=N]
 *                     [--csv] [--jsonl[=path]]
 *                     [--mechanism=NAME] [key=value ...]
 *
 * --mechanism=NAME swaps the context-switch column's preemption
 * mechanism for any registered one (e.g. --mechanism=adaptive; see
 * --list-schemes), relabelling that column "PPQ-NAME"; asking for
 * draining collapses the table to that single preemptive column
 * instead of duplicating the fixed PPQ-Drain one.  Without the flag
 * the output is the paper's figure, byte for byte.
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
    harness::Args args(argc, argv, BenchOptions::flags({"mechanism"}));
    BenchOptions opt = BenchOptions::fromArgs(args, "fig5_ppq_ntt");

    // The second preemptive column defaults to the paper's
    // context-switch mechanism; --mechanism swaps in any registered
    // one (the CI smoke runs the adaptive mechanism through here).
    // Asking for draining would duplicate the fixed PPQ-Drain
    // column, so that column is dropped in that case.
    std::string mech = args.flag("mechanism", "context_switch");
    std::string mech_col =
        mech == "context_switch" ? "PPQ-CS" : "PPQ-" + mech;
    std::vector<std::string> prio_cols{"NPQ", mech_col};

    harness::Suite suite("fig5");
    suite.sizes(opt.sizes)
        .prioritized(opt.perBench, opt.seed)
        .minReplays(opt.replays)
        .schemeNonprioritized("BASE",
                              {"fcfs", "context_switch", "fcfs"})
        .scheme("NPQ", {"npq", "context_switch", "priority"})
        .scheme(mech_col, {"ppq_excl", mech, "priority"});
    if (mech != "draining") {
        suite.scheme("PPQ-Drain", {"ppq_excl", "draining", "priority"});
        prio_cols.push_back("PPQ-Drain");
    }
    harness::Batch batch = suite.build();

    harness::Runner runner(figureConfig(args), opt.jobs);
    opt.configureRunner(runner);
    runner.setProgress(progressMeter("fig5"));
    auto results = bench::runAll(runner, batch.requests);

    // improvements[group][size][scheme] -> samples
    std::map<int, std::map<int, std::vector<std::vector<double>>>>
        improvements;
    const std::size_t nschemes = prio_cols.size();

    for (std::size_t si = 0; si < batch.sizes.size(); ++si) {
        for (std::size_t pi = 0; pi < batch.numPlans(si); ++pi) {
            const auto &plan = batch.plansBySize[si][pi];
            double ntt_base =
                results[batch.indexOf(si, pi, 0)].metrics.ntt[0];

            int grp = groupIndex(class1Of(plan.benchmarks[0]));
            for (int g : {grp, groupAverage}) {
                auto &bucket = improvements[g][batch.sizes[si]];
                bucket.resize(nschemes);
                for (std::size_t s = 0; s < nschemes; ++s) {
                    double ntt = results[batch.indexOf(si, pi, s + 1)]
                                     .metrics.ntt[0];
                    bucket[s].push_back(ntt_base / ntt);
                }
            }
        }
    }

    std::vector<std::string> headers{"Group", "Procs"};
    headers.insert(headers.end(), prio_cols.begin(), prio_cols.end());
    harness::AsciiTable t(headers);
    for (int g = 0; g < numGroups; ++g) {
        for (int size : opt.sizes) {
            auto it = improvements.find(g);
            if (it == improvements.end() ||
                !it->second.count(size)) {
                continue;
            }
            const auto &bucket = it->second.at(size);
            std::vector<std::string> row{groupName(g),
                                         harness::fmt(size, 0)};
            for (std::size_t s = 0; s < nschemes; ++s)
                row.push_back(harness::fmtTimes(meanOrZero(bucket[s])));
            t.addRow(row);
        }
        t.addSeparator();
    }

    std::cout << "Figure 5: NTT improvement of the high-priority "
                 "process over its\nnonprioritized (FCFS) execution.  "
                 "Groups = Class 1 of the prioritized benchmark.\n\n";
    emitTable(t, opt.csv);
    if (!opt.jsonl.empty())
        harness::writeResultsJsonl(opt.jsonl, batch, results);
    if (mech == "context_switch") {
        std::cout << "\nPaper shape: NPQ ~1.1-1.6x; PPQ-CS grows to "
                     "~15.6x and PPQ-Drain to ~6x at 8\nprocesses on "
                     "average; the SHORT group benefits most (CS up "
                     "to ~64x).\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return harness::runMain(argc, argv, run);
}
