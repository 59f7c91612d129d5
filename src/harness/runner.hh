/**
 * @file
 * Batch runner: execute many (plan, scheme) simulation requests,
 * deterministically.
 *
 * The harness API is declarative: benches describe *what* to run as a
 * list of RunRequest values (usually produced by a harness::Suite
 * grid) and hand the whole batch to a Runner, which passes it to the
 * batch executor (harness/exec): at one job the requests run in this
 * process, at `jobs` > 1 on `jobs` forked worker processes.  Every
 * request constructs its own workload::System, and results come back
 * *in request order*, so the output of a batch is bit-identical for
 * any job count.
 *
 * Determinism contract:
 *  - each request's simulation is seeded solely by its plan.seed (the
 *    per-run RNG forks from there; see DESIGN.md §3), so a run's
 *    result does not depend on which process executes it or when;
 *  - isolated baselines are memoized per (benchmark, replays,
 *    config), and each value is a pure function of that key;
 *  - results are collected into a vector indexed by request position,
 *    never by completion order.
 */

#ifndef GPUMP_HARNESS_RUNNER_HH
#define GPUMP_HARNESS_RUNNER_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/exec/options.hh"
#include "metrics/metrics.hh"
#include "serve/slo.hh"
#include "sim/config.hh"
#include "workload/generator.hh"
#include "workload/system.hh"

namespace gpump {
namespace harness {

/** A scheduling scheme: the knobs the paper's figures compare.
 *  Policy and mechanism names resolve through the core scheme
 *  registries (core/registry.hh); run any bench with --list-schemes
 *  for the live list. */
struct Scheme
{
    std::string policy = "fcfs";
    std::string mechanism = "context_switch";
    std::string transferPolicy = "fcfs";

    /**
     * "policy/mechanism" label for reports, driven by the registry:
     * policies that never preempt drop the mechanism component, and
     * the transfer policy is appended when it is not the default
     * ("fcfs"), so distinct registered schemes always get distinct
     * labels.
     */
    std::string label() const;
};

/** One simulation to run: a workload plan under a scheme. */
struct RunRequest
{
    /** The workload (benchmarks + optional prioritized process). */
    workload::WorkloadPlan plan;
    /** Cloud-serving mode: when set, the simulation is built from
     *  this scenario (open-loop arrival schedules, admission bounds,
     *  tenant priorities) instead of from `plan`, and the result
     *  additionally carries serving metrics.  The scenario's tenant
     *  benchmarks drive the isolated-baseline replays, so `plan` may
     *  be left empty.  Shared because many requests of a batch
     *  (scheme columns) run the same scenario. */
    std::shared_ptr<const serve::ScenarioSpec> serving;
    /** The scheduling scheme to run it under. */
    Scheme scheme;
    /** Config overrides merged on top of the Runner's base config. */
    sim::Config overrides;
    /** Executions each process must complete (Section 4.1). */
    int minReplays = 3;
    /** Safety horizon forwarded to System::run. */
    sim::SimTime limit = sim::maxTime;
    /** Stable human-readable tag, echoed into the result. */
    std::string tag;
    /** Position in the batch.  Suite::build sets it; Runner::run
     *  overrides every result's index with the actual batch position
     *  regardless, so hand-built request lists need not fill it. */
    std::size_t index = 0;
};

/** Outcome of one request: the full run plus derived metrics. */
struct RunResult
{
    /** @name Request identity, echoed back. @{ */
    std::size_t index = 0;
    std::string tag;
    Scheme scheme;
    /** @} */

    /** Eyerman-Eeckhout metric set against isolated baselines. */
    metrics::SystemMetrics metrics;
    /** Isolated per-process baselines the metrics were computed from. */
    std::vector<double> isolatedUs;
    /** Full simulation outcome (turnarounds, counters, run records). */
    workload::SystemResult sys;

    /** True when the request carried a serving scenario. */
    bool servingRun = false;
    /** Per-class tail-latency/SLO metrics (serve/slo.hh); only
     *  meaningful when servingRun is set. */
    serve::ServingMetrics serving;

    /** @name Simulator throughput telemetry
     * Wall-clock cost of the run and the resulting simulation rate.
     * Host-dependent by nature, so excluded from the determinism
     * contract (and from bit-identity comparisons); everything else
     * in a RunResult is a pure function of the request.
     * @{ */
    /** Wall-clock seconds Runner::runOne spent in System::run. */
    double wallSeconds = 0.0;
    /** Simulator throughput over sys.eventsExecuted; quiet NaN when
     *  the run took no measurable wall time (unknown rate, not zero).
     *  Consistent with the non-finite-metrics convention: the JSONL
     *  writer serializes it as null rather than a misleading 0. */
    double eventsPerSec() const
    {
        return wallSeconds > 0.0
            ? static_cast<double>(sys.eventsExecuted) / wallSeconds
            : std::numeric_limits<double>::quiet_NaN();
    }
    /** @} */
};

/**
 * Memoized isolated-baseline store.
 *
 * The isolated execution time of a benchmark (the denominator of
 * every Eyerman-Eeckhout metric) depends only on the benchmark, the
 * replay count and the config, so it is computed once per distinct
 * key and process and shared by every run there; a forked worker
 * starts with the entries its parent held.
 */
class IsolatedBaselineCache
{
  public:
    /**
     * Isolated execution time of @p benchmark (microseconds): the
     * application alone on the machine under FCFS with a fixed seed,
     * mean turnaround over @p minReplays executions.
     */
    double timeUs(const std::string &benchmark, const sim::Config &cfg,
                  int minReplays);

    /** Number of actual computations performed (for tests). */
    std::uint64_t computations() const { return computations_; }

  private:
    std::map<std::string, double> values_;
    std::uint64_t computations_ = 0;
};

/**
 * Executes batches of RunRequests, in process or across forked
 * workers.
 *
 * One Runner corresponds to one experiment campaign: it owns the base
 * config and the isolated-baseline cache shared by every request.
 */
class Runner
{
  public:
    /**
     * Progress callback: invoked after each completed request with
     * the number of completed requests so far, the batch size, the
     * request that just finished and its result (e.g. for throughput
     * reporting).  Always called in the process that called run(),
     * one call at a time.
     */
    using ProgressFn = std::function<void(
        std::size_t done, std::size_t total, const RunRequest &req,
        const RunResult &res)>;

    /**
     * @param base config overrides applied to every simulation.
     * @param jobs parallelism of run(): 1 = in this process, N > 1 =
     *        N forked worker processes.
     */
    explicit Runner(sim::Config base = sim::Config(), int jobs = 1);

    const sim::Config &baseConfig() const { return base_; }

    /** Parallelism of run(), clamped to >= 1. */
    int jobs() const { return jobs_; }

    void setProgress(ProgressFn fn) { progress_ = std::move(fn); }
    const ProgressFn &progressFn() const { return progress_; }

    /**
     * Options of the batch executor (harness/exec): the result cache
     * directory, the per-request watchdog of forked workers and the
     * retry policy (DESIGN.md §10).
     */
    void setExec(exec::ExecOptions options)
    {
        exec_ = std::move(options);
    }

    /**
     * Execute the whole batch through exec::runBatch and return
     * results in request order.
     *
     * At one job the requests run in this process, one at a time; at
     * N jobs on N forked workers.  Results are placed by request
     * position, so the returned vector is bit-identical for any job
     * count.  A failing request (e.g. sim::FatalError on a livelocked
     * schedule) aborts the rest of the batch and its exception is
     * rethrown.
     *
     * Responds to installInterruptHandlers() (harness/interrupt.hh):
     * after SIGINT/SIGTERM no new requests start and the batch raises
     * InterruptedError, so front ends can exit non-zero without
     * tearing output mid-record.
     */
    std::vector<RunResult> run(const std::vector<RunRequest> &requests);

    /** Execute one request in this process. */
    RunResult runOne(const RunRequest &request);

    /**
     * Isolated execution time of @p benchmark under the base config
     * (see IsolatedBaselineCache::timeUs).  Memoized.
     */
    double isolatedTimeUs(const std::string &benchmark,
                          int minReplays = 3);

    /** The cache shared by every request of this Runner. */
    IsolatedBaselineCache &baselines() { return baselines_; }

  private:
    sim::Config base_;
    int jobs_ = 1;
    exec::ExecOptions exec_;
    ProgressFn progress_;
    IsolatedBaselineCache baselines_;
};

} // namespace harness
} // namespace gpump

#endif // GPUMP_HARNESS_RUNNER_HH
