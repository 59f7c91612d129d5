/**
 * @file
 * Regenerates Figure 7: the effects of DSS equal spatial sharing
 * versus the FCFS baseline, with both preemption mechanisms:
 *  (a) per-application NTT improvement, grouped by application length
 *      class (Table 1, Class 2);
 *  (b) system fairness improvement;
 *  (c) system throughput degradation.
 *
 * Methodology (Section 4.4): random workloads of equal-priority
 * processes; tokens tc = floor(NSMs/Np) with the remainder going to
 * the first admitted kernels; FCFS on the transfer engine.
 *
 * Usage: fig7_dss [--quick] [--workloads=N] [--replays=N] [--seed=N]
 *                 [--sizes=2,4,...] [--jobs=N] [--csv]
 *                 [--jsonl[=path]] [key=value ...]
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
    BenchOptions opt = BenchOptions::fromArgs(args, "fig7_dss");

    harness::Suite suite("fig7");
    suite.sizes(opt.sizes)
        .uniform(opt.workloads, opt.seed)
        .minReplays(opt.replays)
        .scheme("FCFS", {"fcfs", "context_switch", "fcfs"})
        .scheme("DSS-CS", {"dss", "context_switch", "fcfs"})
        .scheme("DSS-Drain", {"dss", "draining", "fcfs"});
    harness::Batch batch = suite.build();

    harness::Runner runner(figureConfig(args), opt.jobs);
    opt.configureRunner(runner);
    runner.setProgress(progressMeter("fig7"));
    auto results = bench::runAll(runner, batch.requests);

    // ntt_impr[group][size][scheme], fair_impr[size][scheme],
    // stp_degr[size][scheme].
    const std::size_t nschemes = 2; // DSS-CS, DSS-Drain
    std::map<int, std::map<int, std::vector<std::vector<double>>>>
        ntt_impr;
    std::map<int, std::vector<std::vector<double>>> fair_impr;
    std::map<int, std::vector<std::vector<double>>> stp_degr;

    for (std::size_t si = 0; si < batch.sizes.size(); ++si) {
        int size = batch.sizes[si];
        fair_impr[size].resize(nschemes);
        stp_degr[size].resize(nschemes);
        for (std::size_t pi = 0; pi < batch.numPlans(si); ++pi) {
            const auto &plan = batch.plansBySize[si][pi];
            const auto &base = results[batch.indexOf(si, pi, 0)];
            for (std::size_t s = 0; s < nschemes; ++s) {
                const auto &r = results[batch.indexOf(si, pi, s + 1)];
                fair_impr[size][s].push_back(r.metrics.fairness /
                                             base.metrics.fairness);
                stp_degr[size][s].push_back(base.metrics.stp /
                                            r.metrics.stp);
                for (std::size_t i = 0; i < plan.benchmarks.size();
                     ++i) {
                    double impr =
                        base.metrics.ntt[i] / r.metrics.ntt[i];
                    int grp =
                        groupIndex(class2Of(plan.benchmarks[i]));
                    for (int g : {grp, groupAverage}) {
                        auto &bucket = ntt_impr[g][size];
                        bucket.resize(nschemes);
                        bucket[s].push_back(impr);
                    }
                }
            }
        }
    }

    std::cout << "Figure 7: effects of DSS equal sharing vs. FCFS\n\n";

    {
        harness::AsciiTable t({"Group", "Procs", "DSS-CS",
                               "DSS-Drain"});
        // Paper panel order: SHORT, MEDIUM, LONG, AVERAGE.
        for (int g : {2, 1, 0, groupAverage}) {
            for (int size : opt.sizes) {
                auto git = ntt_impr.find(g);
                if (git == ntt_impr.end() || !git->second.count(size))
                    continue;
                const auto &bucket = git->second.at(size);
                t.addRow({groupName(g), harness::fmt(size, 0),
                          harness::fmtTimes(meanOrZero(bucket[0])),
                          harness::fmtTimes(meanOrZero(bucket[1]))});
            }
            t.addSeparator();
        }
        std::cout << "(a) Turnaround time improvement (groups = "
                     "Class 2 of each app):\n\n";
        emitTable(t, opt.csv);
    }

    auto emit_by_size =
        [&](const char *title,
            std::map<int, std::vector<std::vector<double>>> &data) {
            harness::AsciiTable t({"Procs", "DSS-CS", "DSS-Drain"});
            for (int size : opt.sizes) {
                t.addRow({harness::fmt(size, 0),
                          harness::fmtTimes(meanOrZero(data[size][0])),
                          harness::fmtTimes(
                              meanOrZero(data[size][1]))});
            }
            std::cout << "\n" << title << "\n\n";
            emitTable(t, opt.csv);
        };

    emit_by_size("(b) System fairness improvement over FCFS:",
                 fair_impr);
    emit_by_size("(c) System throughput degradation over FCFS:",
                 stp_degr);
    if (!opt.jsonl.empty())
        harness::writeResultsJsonl(opt.jsonl, batch, results);

    std::cout << "\nPaper shape: SHORT apps gain most (CS 2.45-4x), "
                 "LONG apps degrade to ~0.55x;\naverage NTT "
                 "improvement CS 1.5-2x > Drain 1.4-1.65x; fairness "
                 "CS up to ~3.35x;\nSTP degradation CS 1.06-1.34x < "
                 "Drain 1.08-1.5x.\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return harness::runMain(argc, argv, run);
}
