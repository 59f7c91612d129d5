/**
 * @file
 * Soft real-time GPU work under multiprogramming (the paper's first
 * motivation, Section 2.4), expressed as a serving scenario.
 *
 * An interactive reconstruction task (mri-q, SHORT class) receives a
 * steady open-loop request stream — a frame to reconstruct every few
 * milliseconds, whether or not the GPU is free — while three batch
 * applications grind in the background.  We compare how predictably
 * frames complete under FCFS, NPQ and PPQ with both mechanisms.
 *
 * The serve layer does the bookkeeping the old hand-rolled version
 * did manually: the scenario declares the arrival process and the
 * deadline, every scheme runs the identical frame timeline, and each
 * RunResult carries the per-class latency percentiles and
 * deadline-miss rate directly.
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "harness/args.hh"
#include "harness/report.hh"
#include "harness/suite.hh"
#include "serve/scenario.hh"

using namespace gpump;

namespace {

int
run(int argc, char **argv)
{
    // --list-schemes and config key=value overrides work in every
    // example binary; Args handles the flag and exits, and the
    // collected overrides feed every simulation below.
    harness::Args args(argc, argv);

    harness::Runner runner(args.config(), /*jobs=*/2);
    const double frame_iso = runner.isolatedTimeUs("mri-q");

    // One frame every 2.5x the isolated reconstruction time (40%
    // load), deadline 5x isolated — "soft real time": late frames are
    // displayed anyway, but counted.
    serve::ScenarioSpec sc;
    sc.name = "realtime";
    sc.horizonUs = 80.0 * frame_iso;
    sc.seed = 20140614;

    serve::TenantSpec task;
    task.name = "reconstruction";
    task.benchmark = "mri-q";
    task.className = "realtime";
    task.priority = 1;
    task.deadlineUs = 5.0 * frame_iso;
    task.arrivals.kind = serve::ArrivalSpec::Kind::Poisson;
    task.arrivals.ratePerSec = 0.4 / (frame_iso * 1e-6);
    sc.tenants.push_back(task);

    for (const char *bench : {"lbm", "stencil", "mri-gridding"}) {
        serve::TenantSpec batch;
        batch.name = bench;
        batch.benchmark = bench;
        batch.className = "batch";
        // Batch work trickles in open-loop too, slowly enough that
        // each tenant is busy but not the bottleneck.
        batch.arrivals.kind = serve::ArrivalSpec::Kind::Poisson;
        batch.arrivals.ratePerSec =
            0.3 / (runner.isolatedTimeUs(bench) * 1e-6);
        sc.tenants.push_back(batch);
    }

    harness::Suite suite("realtime");
    suite.serving({sc})
        .limit(sim::seconds(120.0))
        .scheme("fcfs", {"fcfs", "context_switch", "fcfs"})
        .scheme("npq", {"npq", "context_switch", "priority"})
        .scheme("ppq/drain", {"ppq_excl", "draining", "priority"})
        .scheme("ppq/cs", {"ppq_excl", "context_switch", "priority"});
    harness::Batch batch = suite.build();
    auto results = runner.run(batch.requests);

    std::printf("Soft real-time mri-q frames against three batch "
                "apps\n");
    std::printf("==================================================="
                "\n\n");
    std::printf("mri-q alone: %.0f us per frame; one frame offered "
                "every %.0f us,\ndeadline 5x isolated\n\n", frame_iso,
                frame_iso / 0.4);

    harness::AsciiTable t({"scheduler", "mean (us)", "p50 (us)",
                           "p99 (us)", "worst (us)", "miss%"});
    for (std::size_t ci = 0; ci < batch.schemes.size(); ++ci) {
        const harness::RunResult &r = results[batch.indexOf(0, 0, ci)];
        int idx = r.serving.classIndex("realtime");
        const serve::ClassMetrics &c =
            r.serving.classes[static_cast<std::size_t>(idx)];
        t.addRow({batch.schemes[ci].name,
                  harness::fmt(c.latency.mean, 0),
                  harness::fmt(c.latency.p50, 0),
                  harness::fmt(c.latency.p99, 0),
                  harness::fmt(c.latency.max, 0),
                  harness::fmt(100.0 * c.missRate, 0) + "%"});
    }
    t.print(std::cout);

    std::printf("\nPreemptive prioritization makes frame latency "
                "short and predictable;\nwithout it, a frame's fate "
                "depends on whatever batch kernel happens to be\n"
                "running when it arrives.\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return harness::runMain(argc, argv, run);
}
