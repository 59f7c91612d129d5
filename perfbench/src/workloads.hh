/**
 * @file
 * The benchmark's three workloads, built through the public harness.
 *
 * Every workload is a fixed traffic shape: which benchmarks share the
 * GPU in each mix, the scheme columns, the loads.  The seed draws
 * every random input within that shape — the per-mix simulation
 * seeds (thread-block duration draws) and the serving arrival
 * timelines — so two seeds load the same layers equally while
 * producing different simulations.  Mix membership is part of the
 * shape rather than drawn from the seed because one mix containing
 * lbm costs more host time than the rest of a batch together.
 * README.md explains why each workload was chosen.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/suite.hh"
#include "tracer.hh"

namespace perfbench {

/** The figure benches' seed; outcome digests are pinned at it. */
constexpr std::uint64_t defaultSeed = 20140614;

/** One workload, set up and ready to run batches. */
struct Workload
{
    std::string name;
    /** Owns the base config and the warm isolated-baseline cache. */
    std::unique_ptr<gpump::harness::Runner> runner;
    gpump::harness::Batch batch;
    /** Forked exec workers per batch; 0 = in-process at one job. */
    int workers = 0;
    /** Arrivals offered to each serving request (all tenants); empty
     *  for closed-loop workloads. */
    std::vector<std::int64_t> offered;
};

/**
 * Build workload @p name at @p seed: the suite, the serving timelines
 * and the isolated-baseline warm-up, with spans around each call into
 * the harness.  Raises sim::FatalError for an unknown name.
 */
Workload setUpWorkload(const std::string &name, std::uint64_t seed,
                       Tracer &tracer);

/**
 * The `fig5_ppq_ntt --quick` AVERAGE 2-process PPQ-CS cell (mean NTT
 * improvement of the high-priority process over BASE) when the
 * batch holds that cell unchanged, i.e. prio_closed at the default
 * seed; empty otherwise.
 */
std::optional<double> fig5QuickCell(
    const Workload &w,
    const std::vector<gpump::harness::RunResult> &results);

/** The pinned value of that cell (tests/test_runner.cpp). */
constexpr double fig5QuickGolden = 1.4130172243592014;

/**
 * Thread blocks of the executions @p result completed: each process's
 * completed runs times its benchmark's TBs per execution.  A pure
 * function of the simulated outcome (the unfinished last execution of
 * a closed-loop process is not counted).
 */
std::int64_t completedExecutionTbs(
    const gpump::harness::RunRequest &request,
    const gpump::harness::RunResult &result);

/** True when @p scheme registers a completion observer (the
 *  pred_adaptive mechanism and the bore_burst policy do). */
bool observesCompletions(const gpump::harness::Scheme &scheme);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
