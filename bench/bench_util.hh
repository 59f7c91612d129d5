/**
 * @file
 * Shared helpers for the figure-regeneration benches: common CLI
 * options, Class 1/2 lookups, progress reporting and table emission.
 */

#ifndef GPUMP_BENCH_BENCH_UTIL_HH
#define GPUMP_BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdio>
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
    /** Parallelism of the batch (--jobs=N; default 1): 1 runs it in
     *  process, N > 1 across N forked workers with crash isolation
     *  and requeue/retry (DESIGN.md §10).  Results merge in request
     *  order, so output is byte-identical for any job count. */
    int jobs = 1;
    /** JSON-lines output path; empty = disabled.  Bare --jsonl picks
     *  results/<bench>.jsonl. */
    std::string jsonl;
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
     * The flags fromArgs reads, plus @p own, the flags a bench reads
     * itself.  A bench hands the list to harness::Args, which rejects
     * every other flag.
     */
    static std::vector<std::string> flags(std::vector<std::string> own = {})
    {
        std::vector<std::string> f{
            "quick", "sizes", "per-bench", "workloads", "replays", "seed",
            "csv",   "jobs",  "cache-dir", "timeout",   "jsonl"};
        f.insert(f.end(), own.begin(), own.end());
        return f;
    }

    /**
     * Parse from args: --quick shrinks everything for smoke runs;
     * --sizes/--per-bench/--workloads/--replays/--seed/--csv/--jobs/
     * --cache-dir/--timeout/--jsonl[=path] override.  --per-bench,
     * --workloads, --replays and --jobs accept only an integer in
     * [1, INT_MAX], and --timeout only a finite number of seconds
     * >= 0.  @p bench_name names the default JSONL file.
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
        o.perBench = args.flagPositiveInt("per-bench", o.perBench);
        o.workloads = args.flagPositiveInt("workloads", o.workloads);
        o.replays = args.flagPositiveInt("replays", o.replays);
        o.seed = static_cast<std::uint64_t>(
            args.flagInt("seed", static_cast<std::int64_t>(o.seed)));
        o.csv = args.hasFlag("csv");
        o.jobs = args.flagPositiveInt("jobs", o.jobs);
        o.cacheDir = args.flag("cache-dir", "");
        o.timeoutSec = args.flagDouble("timeout", o.timeoutSec);
        if (o.timeoutSec < 0.0)
            sim::fatal("flag --timeout expects a non-negative number "
                       "of seconds, got %g",
                       o.timeoutSec);
        o.jsonl = jsonlPath(args, bench_name);
        return o;
    }

    /** Apply the forked executor's options (--cache-dir/--timeout)
     *  to @p runner; --jobs is passed at its construction. */
    void configureRunner(harness::Runner &runner) const
    {
        harness::exec::ExecOptions ex;
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
 * Progress meter for Runner::setProgress.
 *
 * `done` counts completed runs (under --jobs=N they finish out of
 * request order).  stderr only: stdout stays machine-clean.  Each
 * line carries the finished run's simulator throughput so perf
 * regressions show up mid-campaign.
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
 * handlers, so an interrupted sweep stops dispatching, lets in-flight
 * runs finish, ends its outputs on record boundaries and raises
 * harness::InterruptedError, which harness::runMain turns into exit
 * status 128+signal, shell style.  Every bench main routes its
 * Runner::run call through here.
 */
inline std::vector<harness::RunResult>
runAll(harness::Runner &runner,
       const std::vector<harness::RunRequest> &requests)
{
    harness::installInterruptHandlers();
    return runner.run(requests);
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
