/**
 * @file
 * Shared helpers for the figure-regeneration benches: common CLI
 * options, Class 1/2 lookups, thread-safe progress reporting and
 * table emission.
 */

#ifndef GPUMP_BENCH_BENCH_UTIL_HH
#define GPUMP_BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "harness/args.hh"
#include "harness/interrupt.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "sim/logging.hh"
#include "trace/parboil.hh"

namespace gpump {
namespace bench {

/** Options every figure bench accepts. */
struct BenchOptions
{
    /** Workload sizes (process counts), as in the paper. */
    std::vector<int> sizes{2, 4, 6, 8};
    /** Prioritized workloads per benchmark per size (Figures 5/6). */
    int perBench = 1;
    /** Uniform workloads per size (Figures 7/8).  The default is
     *  sized so the whole bench suite finishes in well under an hour
     *  on one core; raise it for tighter confidence intervals. */
    int workloads = 5;
    /** Executions each process must complete (Section 4.1: 3). */
    int replays = 3;
    std::uint64_t seed = 20140614; // ISCA 2014
    bool csv = false;
    /** Worker threads for the batch runner (--jobs=N; default 1). */
    int jobs = 1;
    /** JSON-lines output path; empty = disabled.  Bare --jsonl picks
     *  results/<bench>.jsonl. */
    std::string jsonl;
    /** Forked worker processes (--workers=N; default 0 = in-process
     *  thread pool).  Results are merged in request order, so output
     *  is byte-identical to --jobs for any worker count; workers add
     *  crash isolation and requeue/retry (DESIGN.md §10). */
    int workers = 0;
    /** On-disk result cache directory (--cache-dir=PATH; empty =
     *  off).  Completed runs are persisted under their request
     *  fingerprint, so rerunning an interrupted sweep against the
     *  same directory resumes instead of recomputing. */
    std::string cacheDir;
    /** Per-request watchdog for worker processes, seconds
     *  (--timeout=S; 0 = off): a wedged worker is killed and its
     *  request requeued. */
    double timeoutSec = 0.0;

    /**
     * Parse from args: --quick shrinks everything for smoke runs;
     * --sizes/--per-bench/--workloads/--replays/--seed/--csv/--jobs/
     * --workers/--cache-dir/--timeout/--jsonl[=path] override.
     * --jobs/--workers share one validator: anything but an integer
     * in [1, INT_MAX] is fatal.  @p bench_name names the default JSONL
     * file.
     */
    static BenchOptions fromArgs(const harness::Args &args,
                                 const std::string &bench_name)
    {
        BenchOptions o;
        if (args.hasFlag("quick")) {
            o.sizes = {2, 4};
            o.workloads = 3;
            o.replays = 2;
        }
        o.sizes = args.flagIntList("sizes", o.sizes);
        o.perBench = args.flagInt32("per-bench", o.perBench);
        o.workloads = args.flagInt32("workloads", o.workloads);
        o.replays = args.flagInt32("replays", o.replays);
        o.seed = static_cast<std::uint64_t>(
            args.flagInt("seed", static_cast<std::int64_t>(o.seed)));
        o.csv = args.hasFlag("csv");
        o.jobs = args.flagPositiveInt("jobs", o.jobs);
        o.workers = args.flagPositiveInt("workers", o.workers);
        o.cacheDir = args.flag("cache-dir", "");
        o.timeoutSec = args.flagDouble("timeout", o.timeoutSec);
        if (o.timeoutSec < 0.0)
            sim::fatal("flag --timeout expects a non-negative number "
                       "of seconds, got %g",
                       o.timeoutSec);
        o.jsonl = jsonlPath(args, bench_name);
        return o;
    }

    /** Apply the multi-process backend options (--workers/
     *  --cache-dir/--timeout) to @p runner; --jobs is passed at its
     *  construction. */
    void configureRunner(harness::Runner &runner) const
    {
        harness::exec::ExecOptions ex;
        ex.workers = workers;
        ex.cacheDir = cacheDir;
        ex.requestTimeoutSec = timeoutSec;
        runner.setExec(ex);
    }

    static std::string jsonlPath(const harness::Args &args,
                                 const std::string &bench_name)
    {
        if (!args.hasFlag("jsonl"))
            return "";
        std::string p = args.flag("jsonl", "");
        if (p.empty() || p == "true")
            p = "results/" + bench_name + ".jsonl";
        return p;
    }
};

/**
 * Config for the figure-regeneration experiments.
 *
 * Defaults the thread-block duration variability to a lognormal
 * CV of 0.25 unless the caller overrides gpu.tb_time_cv.  The paper's
 * simulator replayed *measured* per-TB times, which vary; with a
 * deterministic replay (cv = 0) all blocks of a wave finish at the
 * same instant and draining an SM becomes unrealistically cheap,
 * hiding the context-switch mechanism's latency advantage that
 * Sections 4.2-4.3 analyse.
 */
inline sim::Config
figureConfig(const harness::Args &args)
{
    sim::Config cfg = args.config();
    if (!cfg.has("gpu.tb_time_cv"))
        cfg.set("gpu.tb_time_cv", 0.25);
    return cfg;
}

/** Class 1 (kernel length) of a benchmark, from Table 1. */
inline trace::DurationClass
class1Of(const std::string &bench)
{
    return trace::findBenchmark(bench).kernelClass;
}

/** Class 2 (application length) of a benchmark, from Table 1. */
inline trace::DurationClass
class2Of(const std::string &bench)
{
    return trace::findBenchmark(bench).appClass;
}

/** Group index helpers: LONG=0, MEDIUM=1, SHORT=2, AVERAGE=3. */
constexpr int numGroups = 4;
constexpr int groupAverage = 3;

inline int
groupIndex(trace::DurationClass c)
{
    switch (c) {
      case trace::DurationClass::Long: return 0;
      case trace::DurationClass::Medium: return 1;
      case trace::DurationClass::Short: return 2;
    }
    return groupAverage;
}

inline const char *
groupName(int idx)
{
    switch (idx) {
      case 0: return "LONG";
      case 1: return "MEDIUM";
      case 2: return "SHORT";
      default: return "AVERAGE";
    }
}

/**
 * Thread-safe, jobs-aware progress meter for Runner::setProgress.
 *
 * `done` comes from the Runner's atomic completion counter (runs
 * finish out of order under --jobs), and each update is a single
 * fprintf so concurrent lines never interleave.  stderr only: stdout
 * stays machine-clean.  Each line carries the finished run's
 * simulator throughput so perf regressions show up mid-campaign.
 */
inline harness::Runner::ProgressFn
progressMeter(std::string what)
{
    return [what = std::move(what)](std::size_t done, std::size_t total,
                                    const harness::RunRequest &req,
                                    const harness::RunResult &res) {
        // eventsPerSec is NaN when the run took no measurable wall
        // time; print 0 rather than "nan" in the human meter.
        double evps = res.eventsPerSec();
        if (!std::isfinite(evps))
            evps = 0.0;
        std::fprintf(stderr, "[%s] %zu/%zu done (%s) %.2fM ev/s\n",
                     what.c_str(), done, total, req.tag.c_str(),
                     evps / 1e6);
    };
}

/**
 * Run a batch with graceful interruption: installs the SIGINT/SIGTERM
 * handlers, and when the sweep is interrupted — dispatch stops,
 * in-flight runs finish, outputs end on record boundaries — reports
 * the partial progress on stderr and exits 128+signal, shell style.
 * Every bench main routes its Runner::run call through here.
 */
inline std::vector<harness::RunResult>
runAll(harness::Runner &runner,
       const std::vector<harness::RunRequest> &requests)
{
    harness::installInterruptHandlers();
    try {
        return runner.run(requests);
    } catch (const harness::InterruptedError &e) {
        std::fprintf(stderr, "interrupted: %s\n", e.what());
        std::exit(128 + e.signal());
    }
}

/** Print @p t as text or CSV, and to @p jsonl_path when non-empty. */
inline void
emitTable(const harness::AsciiTable &t, bool csv,
          const std::string &jsonl_path = "")
{
    if (csv)
        t.printCsv(std::cout);
    else
        t.print(std::cout);
    if (!jsonl_path.empty()) {
        harness::JsonlWriter w(jsonl_path);
        t.printJsonl(w.stream());
        std::fprintf(stderr, "wrote %s\n", jsonl_path.c_str());
    }
}

/** Mean of a vector; 0 for empty (group absent at this size). */
inline double
meanOrZero(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

} // namespace bench
} // namespace gpump

#endif // GPUMP_BENCH_BENCH_UTIL_HH
