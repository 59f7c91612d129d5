/**
 * @file
 * perfbench: the gpump simulator benchmark.
 *
 * Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--out-dir DIR] [--golden-dir DIR] [--pin]
 *
 * Runs one workload (workloads.hh) through the public harness and
 * prints, as its last stdout line, one JSON object with the keys
 * correct, attempted, failed and metrics.
 *
 *  --trace 0  sets the workload up three times (setup_s is the
 *             median), then runs its batch repeatedly for S seconds
 *             and reports the end-to-end host metrics: wall_s,
 *             setup_s, run_p50_ms, run_tail_ms, sim_tbs_per_s and
 *             peak_rss_mb.
 *  --trace 1  runs the batch once through the Runner, then replays it
 *             in-process twice, untraced and traced (replay.hh), and
 *             reports the per-layer metrics, each layer's self time
 *             and the tracing overhead.  Spans are written to
 *             DIR/trace-<workload>-<seed>.json (Chrome trace events).
 *  --pin      writes the batch's outcome digests at the default seed
 *             to the golden directory instead of measuring.
 *
 * Correctness: every request's simulated-outcome digest (digest.hh)
 * must match the pinned one at the default seed; at other seeds every
 * round must reproduce the first, and the traced replay must
 * reproduce the Runner's batch.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "digest.hh"
#include "harness/exec/coordinator.hh"
#include "harness/exec/wire.hh"
#include "harness/report.hh"
#include "host.hh"
#include "replay.hh"
#include "sim/logging.hh"
#include "stats.hh"
#include "tracer.hh"
#include "workloads.hh"

using namespace gpump;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

struct Options
{
    std::string workload;
    std::uint64_t seed = defaultSeed;
    double seconds = 10.0;
    bool trace = false;
    bool pin = false;
    std::string outDir = ".bench_build/perfbench/out";
    std::string goldenDir = "perfbench/golden";
};

/** Set-ups per measured run; setup_s is their median. */
constexpr int setupRepeats = 3;
/** Watchdog of forked exec workers, seconds. */
constexpr double workerTimeoutSec = 60.0;

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--pin") {
            o.pin = true;
            continue;
        }
        if (i + 1 >= argc)
            sim::fatal("flag %s needs a value", a.c_str());
        std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::stoull(v);
        else if (a == "--seconds")
            o.seconds = std::stod(v);
        else if (a == "--trace")
            o.trace = v == "1";
        else if (a == "--out-dir")
            o.outDir = v;
        else if (a == "--golden-dir")
            o.goldenDir = v;
        else
            sim::fatal("unknown flag %s", a.c_str());
    }
    if (o.workload.empty())
        sim::fatal("--workload is required");
    if (!(o.seconds > 0.0))
        sim::fatal("--seconds must be positive");
    return o;
}

/** One execution of a workload's batch through the Runner. */
struct BatchRun
{
    std::vector<harness::RunResult> results;
    /** One per request; empty when the request produced no result. */
    std::vector<std::string> digests;
    double wallSeconds = 0.0;
    std::size_t requeues = 0;
    std::string error;
};

BatchRun
runBatch(Workload &w, const std::string &cache_dir)
{
    BatchRun br;
    auto t0 = std::chrono::steady_clock::now();
    try {
        if (w.workers > 0) {
            // As scripts/run_benches.sh runs sweeps: forked workers
            // with a fresh result cache.
            harness::exec::ExecOptions opt;
            opt.workers = w.workers;
            opt.cacheDir = cache_dir;
            opt.requestTimeoutSec = workerTimeoutSec;
            harness::exec::ExecStats stats;
            br.results = harness::exec::runBatch(*w.runner, w.batch.requests,
                                                 opt, &stats);
            br.requeues = stats.requeues;
        } else {
            br.results = w.runner->run(w.batch.requests);
        }
    } catch (const std::exception &e) {
        br.error = e.what();
        br.results.clear();
    }
    br.wallSeconds = secondsSince(t0);
    if (w.workers > 0)
        fs::remove_all(cache_dir);
    br.digests.assign(w.batch.requests.size(), std::string());
    for (std::size_t i = 0; i < br.results.size(); ++i)
        br.digests[i] = outcomeDigest(br.results[i]);
    return br;
}

std::string
goldenPath(const Options &o)
{
    return o.goldenDir + "/" + o.workload + ".txt";
}

/** Pinned digests of the workload, in request order; empty when the
 *  file is absent. */
std::vector<std::string>
readPinned(const Options &o)
{
    std::vector<std::string> out;
    std::ifstream in(goldenPath(o));
    std::string l;
    while (std::getline(in, l)) {
        if (l.empty() || l[0] == '#')
            continue;
        out.push_back(l.substr(0, l.find(' ')));
    }
    return out;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
resultLine(bool correct, std::size_t attempted, std::size_t failed,
           const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out += (i ? ", " : "") + harness::jsonQuote(metrics[i].name) +
            ": {\"value\": " + jsonNumber(metrics[i].value) +
            ", \"unit\": " + harness::jsonQuote(metrics[i].unit) + "}";
    }
    return out + "}}";
}

/** Results file: host facts, run identity and metrics together. */
void
writeResultFile(const Options &o, bool correct, std::size_t attempted,
                std::size_t failed, const std::vector<Metric> &metrics)
{
    std::string body = "{\"workload\": " + harness::jsonQuote(o.workload) +
        ", \"seed\": " + std::to_string(o.seed) +
        ", \"trace\": " + (o.trace ? "1" : "0") + ", \"host\": {";
    auto facts = hostFacts();
    for (std::size_t i = 0; i < facts.size(); ++i)
        body += (i ? ", " : "") + harness::jsonQuote(facts[i].first) + ": " +
            harness::jsonQuote(facts[i].second);
    body += "}, \"result\": " +
        resultLine(correct, attempted, failed, metrics) + "}\n";
    std::string path = o.outDir + "/result-" + o.workload + "-" +
        std::to_string(o.seed) + (o.trace ? "-trace" : "") + ".json";
    std::ofstream(path) << body;
}

void
printMetrics(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

/** Checks the fig5 golden when the batch holds its cell; false only
 *  on a mismatch. */
bool
checkFig5Golden(const Workload &w,
                const std::vector<harness::RunResult> &results)
{
    std::optional<double> cell = fig5QuickCell(w, results);
    if (!cell)
        return true;
    bool ok = std::abs(*cell - fig5QuickGolden) <= 1e-9;
    std::printf("fig5 --quick golden: %.17g (pinned %.17g) %s\n", *cell,
                fig5QuickGolden, ok ? "match" : "MISMATCH");
    return ok;
}

int
pin(const Options &o)
{
    if (o.seed != defaultSeed)
        sim::fatal("--pin applies to the default seed %llu only",
                   static_cast<unsigned long long>(defaultSeed));
    Tracer off(false);
    Workload w = setUpWorkload(o.workload, o.seed, off);
    BatchRun br = runBatch(w, o.outDir + "/pin-cache");
    if (!br.error.empty() || br.requeues)
        sim::fatal("pin run failed: %s", br.error.c_str());
    if (!checkFig5Golden(w, br.results))
        sim::fatal("fig5 golden mismatch; not pinning");
    std::ofstream out(goldenPath(o));
    out << "# Simulated-outcome digests (perfbench/src/digest.hh) of "
           "workload " << o.workload << " at seed " << o.seed
        << ", one per request in batch order.\n# combined "
        << combineDigests(br.digests) << "\n";
    for (std::size_t i = 0; i < br.digests.size(); ++i)
        out << br.digests[i] << " " << w.batch.requests[i].tag << "\n";
    std::printf("pinned %zu digests to %s\n", br.digests.size(),
                goldenPath(o).c_str());
    return 0;
}

int
runMeasured(const Options &o)
{
    Tracer off(false);
    std::vector<double> setups;
    std::optional<Workload> w;
    for (int k = 0; k < setupRepeats; ++k) {
        w.reset();
        auto t0 = std::chrono::steady_clock::now();
        w = setUpWorkload(o.workload, o.seed, off);
        setups.push_back(secondsSince(t0));
    }
    const std::size_t n = w->batch.requests.size();

    // The reference every round must reproduce: the pinned digests at
    // the default seed, otherwise the first round's.
    const bool at_default = o.seed == defaultSeed;
    std::vector<std::string> reference;
    bool correct = true;
    if (at_default) {
        reference = readPinned(o);
        if (reference.size() != n) {
            std::printf("no pinned digests for %zu requests in %s\n", n,
                        goldenPath(o).c_str());
            correct = false;
        }
    }

    std::vector<double> walls, request_s;
    double run_seconds = 0.0;
    double tbs = 0.0;
    std::size_t attempted = 0, failed = 0;
    std::string combined;
    std::uint64_t batch_events = 0;
    auto start = std::chrono::steady_clock::now();
    for (int round = 0;; ++round) {
        BatchRun br = runBatch(
            *w, o.outDir + "/cache-" + std::to_string(getpid()) + "-" +
                std::to_string(round));
        std::size_t f = countFailures(br.digests, reference, br.requeues);
        attempted += n;
        failed += f;
        if (!br.error.empty())
            std::printf("round %d aborted: %s\n", round, br.error.c_str());
        if (reference.empty() && f == 0)
            reference = br.digests;
        if (round == 0) {
            combined = combineDigests(br.digests);
            correct = checkFig5Golden(*w, br.results) && correct;
            for (const auto &r : br.results)
                batch_events += r.sys.eventsExecuted;
        }
        for (std::size_t i = 0; i < br.results.size(); ++i) {
            const harness::RunResult &r = br.results[i];
            request_s.push_back(r.wallSeconds);
            run_seconds += r.wallSeconds;
            tbs += static_cast<double>(
                completedExecutionTbs(w->batch.requests[i], r));
        }
        walls.push_back(br.wallSeconds);
        std::printf("round %d: %.3f s, %zu requests, %zu failed\n", round,
                    br.wallSeconds, n, f);
        std::fflush(stdout);
        if (!br.error.empty() ||
            secondsSince(start) + median(walls) > o.seconds)
            break;
    }
    correct = correct && failed == 0;

    Tail tail = tailPercentile(request_s);
    const double rss_self = peakRssMb();
    const double rss_worker = childrenPeakRssMb();
    std::vector<Metric> metrics = {
        {"wall_s", median(walls), "s"},
        {"setup_s", median(setups), "s"},
        {"run_p50_ms", median(request_s) * 1e3, "ms"},
        {"run_tail_ms", tail.value * 1e3, "ms"},
        {"sim_tbs_per_s", run_seconds > 0 ? tbs / run_seconds : 0.0, "TB/s"},
        {"peak_rss_mb", std::max(rss_self, rss_worker), "MB"},
    };

    std::printf("workload %s, seed %llu: %zu rounds of %zu requests "
                "(%d exec workers), %d set-ups\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                walls.size(), n, w->workers, setupRepeats);
    std::printf("batch: %llu events per round\n",
                static_cast<unsigned long long>(batch_events));
    std::printf("outcome digest %s (%s)\n", combined.c_str(),
                at_default ? "checked against the pinned digests"
                           : "rounds checked against the first round");
    std::printf("run_p50_ms over n=%zu requests; run_tail_ms is p%d "
                "(n=%zu, %zu beyond)\n",
                tail.n, tail.percentile, tail.n, tail.beyondCount);
    std::printf("peak_rss_mb: process %.1f MB, largest worker %.1f MB\n",
                rss_self, rss_worker);
    printMetrics(metrics);
    writeResultFile(o, correct, attempted, failed, metrics);
    std::printf("%s\n", resultLine(correct, attempted, failed, metrics).c_str());
    return 0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

int
runTraced(const Options &o)
{
    Tracer tracer(true);
    std::optional<Workload> w;
    {
        Tracer::Scope span(tracer, "harness.setup", -1);
        w = setUpWorkload(o.workload, o.seed, tracer);
    }
    const std::size_t n = w->batch.requests.size();
    const std::vector<harness::RunRequest> &requests = w->batch.requests;

    // The untraced batch, exactly as the measured run executes it.
    BatchRun br = runBatch(
        *w, o.outDir + "/cache-" + std::to_string(getpid()) + "-traced");
    std::vector<std::string> pinned;
    if (o.seed == defaultSeed)
        pinned = readPinned(o);
    std::size_t failed = countFailures(br.digests, pinned, br.requeues);
    bool correct = o.seed != defaultSeed || pinned.size() == n;
    correct = checkFig5Golden(*w, br.results) && correct;

    // The same batch replayed in-process, untraced then traced; the
    // difference of their wall times is the tracing overhead.
    const std::string replay_dir =
        o.outDir + "/replay-cache-" + std::to_string(getpid());
    auto replay_all = [&](Tracer &t, LayerCounts &counts,
                          std::vector<std::string> &digests) {
        fs::remove_all(replay_dir);
        harness::exec::ResultCache cache(replay_dir);
        auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < n; ++i) {
            std::optional<harness::RunResult> r;
            try {
                r = replayRequest(*w->runner, requests[i],
                                  static_cast<std::int64_t>(i),
                                  w->offered.empty() ? 0 : w->offered[i], t,
                                  cache, counts);
            } catch (const std::exception &e) {
                std::printf("replay of request %zu failed: %s\n", i,
                            e.what());
            }
            digests.push_back(r ? outcomeDigest(*r) : std::string());
        }
        double wall = secondsSince(t0);
        fs::remove_all(replay_dir);
        return wall;
    };
    Tracer off(false);
    LayerCounts off_counts, c;
    std::vector<std::string> off_digests, on_digests;
    const double wall_off = replay_all(off, off_counts, off_digests);
    const double wall_on = replay_all(tracer, c, on_digests);
    failed += countFailures(off_digests, br.digests, 0);
    failed += countFailures(on_digests, br.digests, 0);
    const std::size_t attempted = 3 * n;

    // Spans -> Chrome trace-event JSON, validated as strict JSON by
    // reading it back with the repository's own parser.
    const std::vector<Span> &spans = tracer.spans();
    auto meta = hostFacts();
    meta.insert(meta.begin(), {{"workload", o.workload},
                               {"seed", std::to_string(o.seed)}});
    const std::string trace_path = o.outDir + "/trace-" + o.workload + "-" +
        std::to_string(o.seed) + ".json";
    const std::string trace_json = chromeTraceJson(spans, meta);
    std::ofstream(trace_path) << trace_json;
    bool trace_valid = false;
    try {
        std::ifstream in(trace_path);
        std::stringstream text;
        text << in.rdbuf();
        harness::exec::JsonValue doc = harness::exec::parseJson(text.str());
        const harness::exec::JsonValue *events = doc.find("traceEvents");
        trace_valid = events && events->items.size() == spans.size();
    } catch (const std::exception &e) {
        std::printf("trace file is not strict JSON: %s\n", e.what());
    }
    correct = correct && trace_valid && failed == 0;

    auto stat = [&](const char *name) {
        auto it = c.stats.find(name);
        return it == c.stats.end() ? StatSum() : it->second;
    };
    auto per_tb_ns = [&](const std::string &label) {
        auto it = c.byScheme.find(label);
        if (it == c.byScheme.end())
            return 0.0;
        return ratio(it->second.first * 1e9,
                     static_cast<double>(it->second.second));
    };
    const bool both_observer_columns = c.byScheme.count("dss/pred_adaptive") &&
        c.byScheme.count("dss/adaptive");
    double baseline_us = 0.0;
    for (const Span &s : spans) {
        if (s.id < 0 && s.name == "harness.Runner::isolatedTimeUs")
            baseline_us += s.durationUs();
    }
    double request_run_s = 0.0;
    for (const auto &r : br.results)
        request_run_s += r.wallSeconds;
    const double parallel = w->workers > 0 ? w->workers : 1;
    const double tbs = static_cast<double>(c.tbs);
    const double reqs = static_cast<double>(c.requests);
    const StatSum latency = stat("engine.preempt_latency_us");
    const StatSum xfer_wait = stat("xfer.wait_us");
    std::map<std::string, double> self = selfTimeByLayerUs(spans);

    std::vector<Metric> metrics = {
        {"sim.events_per_tb", ratio(static_cast<double>(c.events), tbs),
         "ev/TB"},
        {"sim.ns_per_event",
         ratio(c.runSeconds * 1e9, static_cast<double>(c.events)), "ns"},
        {"sim.ns_per_tb", ratio(c.runSeconds * 1e9, tbs), "ns"},
        {"sim.held_bytes_per_event",
         ratio(c.largestRunHeldBytes,
               static_cast<double>(c.largestRunEvents)),
         "B/event"},
        {"sim.queue_slots_max", static_cast<double>(c.queueSlotsMax),
         "count"},
        {"sim.counted_tb_share", ratio(static_cast<double>(c.countedTbs), tbs),
         "share"},
        {"core.tbs", tbs, "count"},
        {"core.kernels", static_cast<double>(c.kernels), "count"},
        {"core.preemptions_per_kernel",
         ratio(static_cast<double>(c.preemptions),
               static_cast<double>(c.kernels)),
         "1/kernel"},
        {"core.preempt_latency_us_mean",
         ratio(latency.sum, static_cast<double>(latency.count)), "us"},
        {"core.preempt_latency_us_max", latency.max, "us"},
        {"gpu.xfer_transfers", stat("xfer.transfers").sum, "count"},
        {"gpu.xfer_wait_us",
         ratio(xfer_wait.sum, static_cast<double>(xfer_wait.count)), "us"},
        {"gpu.pcie_bytes", stat("pcie.bytes_moved").sum, "B"},
        {"workload.assemble_us",
         spanTotal(spans, "workload.System::System").meanUs(), "us"},
        {"workload.commands_per_tb", ratio(stat("dispatcher.commands").sum, tbs),
         "cmd/TB"},
        {"workload.cpu_phases", stat("cpu.phases").sum, "count"},
        {"memory.ctx_transfers", static_cast<double>(c.ctxTransfers),
         "count"},
        {"memory.swap_ins", static_cast<double>(c.swapIns), "count"},
        {"memory.swap_bytes", c.swapBytes, "B"},
        {"predict.observed_tb_share",
         ratio(static_cast<double>(c.observedTbs), tbs), "share"},
        {"predict.observer_ns_per_tb",
         both_observer_columns
             ? per_tb_ns("dss/pred_adaptive") - per_tb_ns("dss/adaptive")
             : 0.0,
         "ns"},
        {"serve.timelines_ms",
         spanTotal(spans, "serve.makeTimelines").totalUs / 1e3, "ms"},
        {"serve.dropped_share",
         ratio(static_cast<double>(c.dropped),
               static_cast<double>(c.offered)),
         "share"},
        {"metrics.compute_us",
         ratio(spanTotal(spans, "metrics.computeMetrics").totalUs +
                   spanTotal(spans, "serve.computeServingMetrics").totalUs,
               reqs),
         "us"},
        {"harness.baseline_s", baseline_us / 1e6, "s"},
        {"harness.baseline_runs",
         static_cast<double>(w->runner->baselines().computations()),
         "count"},
        {"harness.overhead_ms",
         (br.wallSeconds - request_run_s / parallel) * 1e3, "ms"},
        {"exec.encode_us", spanTotal(spans, "exec.encodeResult").meanUs(),
         "us"},
        {"exec.decode_us", spanTotal(spans, "exec.decodeResult").meanUs(),
         "us"},
        {"exec.result_bytes", ratio(c.resultBytes, reqs), "B"},
        {"exec.cache_store_ms",
         spanTotal(spans, "exec.ResultCache::store").meanUs() / 1e3, "ms"},
        {"exec.cache_lookup_ms",
         spanTotal(spans, "exec.ResultCache::lookup").meanUs() / 1e3, "ms"},
        {"exec.worker_busy_frac",
         ratio(request_run_s, parallel * br.wallSeconds), "share"},
    };
    for (const char *layer :
         {"harness", "serve", "workload", "sim", "metrics", "exec"}) {
        metrics.push_back({std::string("self.") + layer + "_ms",
                           self.count(layer) ? self.at(layer) / 1e3 : 0.0,
                           "ms"});
    }
    metrics.push_back({"trace.overhead_ms", (wall_on - wall_off) * 1e3, "ms"});
    metrics.push_back(
        {"trace.overhead_share", ratio(wall_on - wall_off, wall_off), "share"});
    metrics.push_back(
        {"trace.spans", static_cast<double>(spans.size()), "count"});

    std::printf("workload %s, seed %llu (traced): %zu requests; Runner "
                "batch %.3f s (%d exec workers), replay untraced %.3f s, "
                "traced %.3f s\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed), n,
                br.wallSeconds, w->workers, wall_off, wall_on);
    std::printf("outcome digest %s; traced replay %s the Runner's batch\n",
                combineDigests(br.digests).c_str(),
                on_digests == br.digests ? "reproduces" : "DIFFERS FROM");
    std::printf("trace: %s (%zu spans, %s)\n", trace_path.c_str(),
                spans.size(), trace_valid ? "strict JSON" : "INVALID");
    std::printf("per-layer metrics:\n");
    printMetrics(metrics);
    std::printf("registered stats, summed over the replayed runs "
                "(sum / count / max):\n");
    for (const auto &[name, s] : c.stats)
        std::printf("  %-32s %16.6g %12llu %14.6g\n", name.c_str(), s.sum,
                    static_cast<unsigned long long>(s.count), s.max);
    writeResultFile(o, correct, attempted, failed, metrics);
    std::printf("%s\n", resultLine(correct, attempted, failed, metrics).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        if (const char *why = unfitBuildReason()) {
            std::fprintf(stderr, "perfbench: refusing to report: %s\n", why);
            return 3;
        }
        Options o = parseArgs(argc, argv);
        fs::create_directories(o.outDir);
        std::printf("host:");
        for (const auto &[k, v] : hostFacts())
            std::printf(" %s=%s;", k.c_str(), v.c_str());
        std::printf("\n");
        if (o.pin)
            return pin(o);
        return o.trace ? runTraced(o) : runMeasured(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
