/**
 * @file
 * Cloud-serving sweep: schemes x offered load, tail latency next to
 * the paper's ANTT/STP.
 *
 * One latency-class request stream (mri-q, deadlined, high priority)
 * shares the GPU with two batch-class streams (sad, sgemm) that offer
 * a fixed background load.  The latency stream's arrival rate sweeps
 * from light load into overload; every (load, scheme) cell runs the
 * *same* deterministic arrival timelines, so the curves compare
 * schedulers under identical offered work.  This is the serving
 * question Section 4.4 motivates ("multi-tenant cloud or server
 * nodes"), asked with serving metrics: a scheduler is judged by the
 * latency class's p99 and deadline-miss rate, not only by ANTT.
 *
 * Rates are expressed as load factors (arrival rate x isolated
 * service time), so the sweep tracks the simulated machine rather
 * than hard-coding requests/second.
 *
 * Usage: serve_slo [--quick] [--loads=30,60,90,120] (percent)
 *                  [--horizon-mult=N] [--replays=N] [--seed=N]
 *                  [--jobs=N] [--csv] [--jsonl[=path]]
 *                  [key=value ...]
 */

#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "harness/report.hh"
#include "harness/suite.hh"
#include "serve/scenario.hh"

using namespace gpump;
using namespace gpump::bench;

namespace {

constexpr const char *kLatencyBench = "mri-q";
constexpr const char *kBatchBenchA = "sad";
constexpr const char *kBatchBenchB = "sgemm";

/** The swept scenario at one latency-class load factor. */
serve::ScenarioSpec
scenarioAt(int load_pct, double horizon_mult, std::uint64_t seed,
           double latency_iso_us, double batch_a_iso_us,
           double batch_b_iso_us)
{
    const double load = load_pct / 100.0;
    serve::ScenarioSpec sc;
    sc.name = "load=" + std::to_string(load_pct);
    sc.horizonUs = horizon_mult * latency_iso_us;
    sc.seed = seed;

    serve::TenantSpec latency;
    latency.name = "latency";
    latency.benchmark = kLatencyBench;
    latency.className = "latency";
    latency.priority = 1;
    latency.deadlineUs = 3.0 * latency_iso_us;
    latency.arrivals.kind = serve::ArrivalSpec::Kind::Poisson;
    latency.arrivals.ratePerSec = load / (latency_iso_us * 1e-6);
    latency.maxBacklog = 8; // admission control under overload
    sc.tenants.push_back(latency);

    // Background batch work at a fixed 40% load each, whatever the
    // latency class offers.
    const char *benches[] = {kBatchBenchA, kBatchBenchB};
    const double isos[] = {batch_a_iso_us, batch_b_iso_us};
    for (int i = 0; i < 2; ++i) {
        serve::TenantSpec batch;
        batch.name = std::string("batch-") + benches[i];
        batch.benchmark = benches[i];
        batch.className = "batch";
        batch.priority = 0;
        batch.arrivals.kind = serve::ArrivalSpec::Kind::Poisson;
        batch.arrivals.ratePerSec = 0.4 / (isos[i] * 1e-6);
        sc.tenants.push_back(batch);
    }
    return sc;
}

int
run(int argc, char **argv)
{
    harness::Args args(argc, argv,
                       BenchOptions::flags({"loads", "horizon-mult"}));
    BenchOptions opt = BenchOptions::fromArgs(args, "serve_slo");

    std::vector<int> loads{30, 60, 90, 120};
    double horizon_mult = 120.0;
    if (args.hasFlag("quick")) {
        loads = {60, 120};
        horizon_mult = 20.0;
    }
    loads = args.flagIntList("loads", loads);
    horizon_mult = args.flagDouble("horizon-mult", horizon_mult);

    harness::Runner runner(figureConfig(args), opt.jobs);
    opt.configureRunner(runner);

    // The load factors are anchored on the isolated service times;
    // these are pure functions of (benchmark, replays, config), so
    // the generated timelines — and with them the whole bench output
    // — stay bit-identical for any --jobs.
    const double latency_iso =
        runner.isolatedTimeUs(kLatencyBench, opt.replays);
    const double batch_a_iso =
        runner.isolatedTimeUs(kBatchBenchA, opt.replays);
    const double batch_b_iso =
        runner.isolatedTimeUs(kBatchBenchB, opt.replays);

    std::vector<serve::ScenarioSpec> scenarios;
    scenarios.reserve(loads.size());
    for (int pct : loads)
        scenarios.push_back(scenarioAt(pct, horizon_mult, opt.seed,
                                       latency_iso, batch_a_iso,
                                       batch_b_iso));

    harness::Suite suite("serve_slo");
    suite.serving(scenarios)
        .minReplays(opt.replays)
        .scheme("FCFS", {"fcfs", "context_switch", "fcfs"})
        .scheme("PPQ-Aging/CS",
                {"ppq_aging", "context_switch", "priority"})
        .scheme("DSS-CS", {"dss", "context_switch", "fcfs"})
        // Burst-demoted PPQ: the batch tenants' long kernels sink
        // below the latency class by measurement, not by the static
        // launch priority alone.
        .scheme("BORE-Burst/CS",
                {"bore_burst", "context_switch", "priority"});
    harness::Batch batch = suite.build();

    runner.setProgress(progressMeter("serve_slo"));
    auto results = bench::runAll(runner, batch.requests);

    std::cout << "Cloud serving: latency-class tail latency vs "
                 "offered load\n(latency tenant " << kLatencyBench
              << ", isolated " << harness::fmt(latency_iso, 0)
              << " us/request, deadline 3x isolated,\nbacklog bound 8; "
                 "batch tenants " << kBatchBenchA << "+"
              << kBatchBenchB << " at 40% load each)\n\n";

    harness::AsciiTable t(
        {"load", "scheme", "ANTT", "STP", "p50 (us)", "p99 (us)",
         "p999 (us)", "miss%", "goodput/s", "batch/s", "fair"});
    for (std::size_t pi = 0; pi < scenarios.size(); ++pi) {
        for (std::size_t ci = 0; ci < batch.schemes.size(); ++ci) {
            const harness::RunResult &r =
                results[batch.indexOf(0, pi, ci)];
            int li = r.serving.classIndex("latency");
            int bi = r.serving.classIndex("batch");
            const serve::ClassMetrics &lat =
                r.serving.classes[static_cast<std::size_t>(li)];
            const serve::ClassMetrics &bat =
                r.serving.classes[static_cast<std::size_t>(bi)];
            t.addRow({std::to_string(loads[pi]) + "%",
                      batch.schemes[ci].name,
                      harness::fmt(r.metrics.antt),
                      harness::fmt(r.metrics.stp),
                      harness::fmt(lat.latency.p50, 0),
                      harness::fmt(lat.latency.p99, 0),
                      harness::fmt(lat.latency.p999, 0),
                      harness::fmt(100.0 * lat.missRate, 1),
                      harness::fmt(lat.goodputPerSec, 1),
                      harness::fmt(bat.throughputPerSec, 1),
                      harness::fmt(r.serving.windowFairness)});
        }
        if (pi + 1 < scenarios.size())
            t.addSeparator();
    }
    emitTable(t, opt.csv);

    if (!opt.jsonl.empty())
        harness::writeResultsJsonl(opt.jsonl, batch, results);

    std::cout << "\nReading the curves: ANTT alone hides the serving "
                 "story.  Under light load all\nschemes look alike; "
                 "as load grows, FCFS lets batch kernels sit in front "
                 "of\nlatency requests and the latency p99 explodes "
                 "long before ANTT does.\nPreemptive prioritization "
                 "(PPQ-Aging) holds the latency class's p99 and "
                 "miss\nrate down into overload at a modest batch-"
                 "throughput cost.\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return harness::runMain(argc, argv, run);
}
