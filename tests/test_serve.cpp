/**
 * Integration tests for the cloud-serving layer: open-loop request
 * semantics (latency vs service time, backlog, admission drops),
 * timeline determinism through the Runner under --jobs,
 * the overload ordering the subsystem exists to show (preemptive
 * prioritization beats FCFS on latency-class p99), a pinned golden,
 * and the serving fields of the results JSONL.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/suite.hh"
#include "serve/scenario.hh"
#include "serve/slo.hh"
#include "sim/logging.hh"

using namespace gpump;

namespace {

/** One mri-q stream with explicit arrivals; no contention. */
serve::ScenarioSpec
singleStream(std::vector<double> arrivals_us, int max_backlog = 0)
{
    serve::ScenarioSpec sc;
    sc.name = "single";
    sc.horizonUs = 100e3;
    sc.seed = 7;
    serve::TenantSpec t;
    t.benchmark = "mri-q";
    t.className = "latency";
    t.arrivals.kind = serve::ArrivalSpec::Kind::Trace;
    t.arrivals.traceUs = std::move(arrivals_us);
    t.maxBacklog = max_backlog;
    sc.tenants.push_back(t);
    return sc;
}

workload::SystemResult
run(const serve::ScenarioSpec &sc)
{
    workload::System system(
        serve::toSystemSpec(sc, "fcfs", "context_switch", "fcfs"));
    return system.run();
}

/** The contended scenario used by the determinism/overload/golden
 *  tests: a deadlined latency stream near saturation plus a batch
 *  tenant, everything pinned numerically so the golden is stable. */
serve::ScenarioSpec
contendedScenario()
{
    serve::ScenarioSpec sc;
    sc.name = "contended";
    sc.horizonUs = 40e3;
    sc.seed = 20140614;

    serve::TenantSpec latency;
    latency.name = "latency";
    latency.benchmark = "mri-q";
    latency.className = "latency";
    latency.priority = 1;
    latency.deadlineUs = 4000.0;
    latency.maxBacklog = 8;
    latency.arrivals.kind = serve::ArrivalSpec::Kind::Poisson;
    latency.arrivals.ratePerSec = 460.0;
    sc.tenants.push_back(latency);

    serve::TenantSpec batch;
    batch.name = "batch";
    batch.benchmark = "sad";
    batch.className = "batch";
    batch.arrivals.kind = serve::ArrivalSpec::Kind::Poisson;
    batch.arrivals.ratePerSec = 45.0;
    sc.tenants.push_back(batch);
    return sc;
}

harness::Batch
contendedBatch()
{
    harness::Suite suite("serve_test");
    suite.serving({contendedScenario()})
        .scheme("FCFS", {"fcfs", "context_switch", "fcfs"})
        .scheme("PPQ-Aging/CS",
                {"ppq_aging", "context_switch", "priority"});
    return suite.build();
}

} // namespace

TEST(ServeOpenLoop, LightLoadLatencyEqualsServiceTime)
{
    // Arrivals far apart: every request finds the stream idle, so
    // release == runStart and latency == turnaround for each record.
    auto result = run(singleStream({0.0, 30e3, 60e3}));
    ASSERT_EQ(result.runs.size(), 1u);
    const auto &records = result.runs[0];
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(result.droppedRequests[0], 0);
    for (const auto &r : records) {
        EXPECT_EQ(r.release, r.start);
        EXPECT_EQ(r.latency(), r.turnaround());
    }
    EXPECT_EQ(records[1].release, sim::microseconds(30e3));
}

TEST(ServeOpenLoop, BacklogWaitIsPartOfLatency)
{
    // Both requests arrive at t=0; the second waits out the first, so
    // its latency strictly exceeds its service time by the first
    // request's full run.
    auto result = run(singleStream({0.0, 0.0}));
    const auto &records = result.runs[0];
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[1].release, 0);
    EXPECT_EQ(records[1].start, records[0].end);
    EXPECT_GT(records[1].latency(), records[1].turnaround());
    EXPECT_EQ(records[1].latency(),
              records[1].turnaround() + records[0].turnaround());
}

TEST(ServeOpenLoop, AdmissionControlDropsBeyondBacklogBound)
{
    // Six simultaneous arrivals, backlog bound 1: one runs, one
    // queues, four are rejected at arrival.
    auto result = run(singleStream({0, 0, 0, 0, 0, 0}, 1));
    EXPECT_EQ(result.runs[0].size(), 2u);
    EXPECT_EQ(result.droppedRequests[0], 4);

    serve::ServingMetrics m = serve::computeServingMetrics(
        singleStream({0, 0, 0, 0, 0, 0}, 1), result);
    ASSERT_EQ(m.classes.size(), 1u);
    EXPECT_EQ(m.classes[0].requests, 6);
    EXPECT_EQ(m.classes[0].completed, 2);
    EXPECT_EQ(m.classes[0].dropped, 4);
    // No deadline on the stream: misses == drops.
    EXPECT_DOUBLE_EQ(m.classes[0].missRate, 4.0 / 6.0);
    EXPECT_EQ(m.classes[0].latency.n, 2);
}

TEST(ServeScenario, TimelinesRegenerateBitIdentically)
{
    serve::ScenarioSpec sc = contendedScenario();
    auto a = serve::makeTimelines(sc);
    auto b = serve::makeTimelines(sc);
    EXPECT_EQ(a, b);
    ASSERT_EQ(a.size(), 2u);
    EXPECT_FALSE(a[0].empty());
    EXPECT_FALSE(a[1].empty());

    // Tenant timelines depend on (seed, index, spec) alone, never on
    // the scheme: the same SystemSpec arrivals under every policy.
    auto sys_a = serve::toSystemSpec(sc, "fcfs", "context_switch",
                                     "fcfs");
    auto sys_b = serve::toSystemSpec(sc, "ppq_aging", "context_switch",
                                     "priority");
    EXPECT_EQ(sys_a.arrivalSchedules, sys_b.arrivalSchedules);
}

TEST(ServeRunner, JobsAreBitIdentical)
{
    harness::Batch batch = contendedBatch();

    harness::Runner serial(sim::Config(), /*jobs=*/1);
    auto base = serial.run(batch.requests);

    harness::Runner parallel(sim::Config(), /*jobs=*/4);
    auto par = parallel.run(batch.requests);

    ASSERT_EQ(base.size(), par.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
        EXPECT_TRUE(base[i].servingRun);
        EXPECT_EQ(base[i].sys.runs, par[i].sys.runs);
        EXPECT_EQ(base[i].sys.droppedRequests,
                  par[i].sys.droppedRequests);
        EXPECT_EQ(base[i].isolatedUs, par[i].isolatedUs);
        ASSERT_EQ(base[i].serving.classes.size(),
                  par[i].serving.classes.size());
        for (std::size_t c = 0; c < base[i].serving.classes.size();
             ++c) {
            const auto &x = base[i].serving.classes[c];
            const auto &y = par[i].serving.classes[c];
            EXPECT_EQ(x.latency.p50, y.latency.p50);
            EXPECT_EQ(x.latency.p99, y.latency.p99);
            EXPECT_EQ(x.missRate, y.missRate);
            EXPECT_EQ(x.goodputPerSec, y.goodputPerSec);
        }
        EXPECT_EQ(base[i].serving.windowFairness,
                  par[i].serving.windowFairness);
    }
}

TEST(ServeRunner, PreemptivePrioritizationBeatsFcfsUnderLoad)
{
    harness::Batch batch = contendedBatch();
    harness::Runner runner(sim::Config(), /*jobs=*/2);
    auto results = runner.run(batch.requests);

    const auto &fcfs = results[batch.indexOf(0, 0, 0)];
    const auto &ppq = results[batch.indexOf(0, 0, 1)];
    int li = fcfs.serving.classIndex("latency");
    ASSERT_GE(li, 0);
    const auto &f = fcfs.serving.classes[static_cast<std::size_t>(li)];
    const auto &p = ppq.serving.classes[static_cast<std::size_t>(li)];

    // The subsystem's reason to exist: under load, preemptive
    // prioritization must cut the latency class's tail and misses.
    EXPECT_LT(p.latency.p99, f.latency.p99);
    EXPECT_LE(p.missRate, f.missRate);
    EXPECT_GE(p.goodputPerSec, f.goodputPerSec);
    // Identical offered load in both cells.
    EXPECT_EQ(p.requests, f.requests);
}

TEST(ServeRunner, GoldenLatencyTailIsPinned)
{
    // Pinned end-to-end aggregate over the whole serving path
    // (timeline generation -> open-loop simulation -> order-statistic
    // percentiles), like the fig5/fig7 goldens: any change to arrival
    // draws, scheduling, or percentile semantics moves this number
    // and must be acknowledged by updating it.
    harness::Batch batch = contendedBatch();
    harness::Runner runner(sim::Config(), /*jobs=*/2);
    auto results = runner.run(batch.requests);
    const auto &fcfs = results[batch.indexOf(0, 0, 0)];
    int li = fcfs.serving.classIndex("latency");
    constexpr double kGoldenP99Us = 3722.6320000000001;
    EXPECT_DOUBLE_EQ(
        fcfs.serving.classes[static_cast<std::size_t>(li)].latency.p99,
        kGoldenP99Us);
}

TEST(ServeJsonl, EmptyClassSerializesAsNull)
{
    // A tenant whose only arrival lies beyond the horizon completes
    // nothing: its class has n = 0, all-NaN latency, NaN miss rate —
    // and the JSONL writer must emit null, never NaN (the PR 5
    // strict-JSON contract).
    serve::ScenarioSpec sc;
    sc.name = "empty_class";
    sc.horizonUs = 20e3;
    sc.seed = 3;
    serve::TenantSpec active;
    active.benchmark = "mri-q";
    active.className = "active";
    active.arrivals.kind = serve::ArrivalSpec::Kind::Trace;
    active.arrivals.traceUs = {0.0};
    sc.tenants.push_back(active);
    serve::TenantSpec idle;
    idle.benchmark = "sgemm";
    idle.className = "idle";
    idle.arrivals.kind = serve::ArrivalSpec::Kind::Trace;
    idle.arrivals.traceUs = {50e3}; // past the horizon: no requests
    sc.tenants.push_back(idle);

    harness::Suite suite("serve_jsonl");
    suite.serving({sc}).scheme("FCFS",
                               {"fcfs", "context_switch", "fcfs"});
    harness::Batch batch = suite.build();
    harness::Runner runner(sim::Config(), 1);
    auto results = runner.run(batch.requests);

    ASSERT_TRUE(results[0].servingRun);
    const serve::ServingMetrics &m = results[0].serving;
    int idle_idx = m.classIndex("idle");
    ASSERT_GE(idle_idx, 0);
    const auto &c = m.classes[static_cast<std::size_t>(idle_idx)];
    EXPECT_EQ(c.requests, 0);
    EXPECT_TRUE(std::isnan(c.latency.p99));
    EXPECT_TRUE(std::isnan(c.missRate));

    const std::string path = "test_serve_scratch.jsonl";
    harness::writeResultsJsonl(path, batch, results);
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string line = ss.str();
    EXPECT_NE(line.find("\"classes\":[\"active\",\"idle\"]"),
              std::string::npos);
    // The idle class is the second vector slot: its percentile and
    // miss-rate entries must be the JSON null constant.
    EXPECT_NE(line.find(",null]"), std::string::npos);
    EXPECT_EQ(line.find("nan"), std::string::npos);
    EXPECT_EQ(line.find("inf"), std::string::npos);
    EXPECT_NE(line.find("\"window_fairness\":"), std::string::npos);
    std::remove(path.c_str());
}

TEST(ServeSuite, ValidationFailsFast)
{
    // Unknown benchmark: caught by ScenarioSpec::validate before any
    // simulation runs.
    serve::ScenarioSpec bad = contendedScenario();
    bad.tenants[0].benchmark = "no-such-benchmark";
    EXPECT_THROW(serve::makeTimelines(bad), sim::FatalError);

    // Duplicate scenario names would collide in reports.
    harness::Suite suite("serve_dup");
    EXPECT_THROW(
        suite.serving({contendedScenario(), contendedScenario()}),
        sim::FatalError);

    // Admission backlogs without arrival schedules are meaningless.
    workload::SystemSpec sys;
    sys.benchmarks = {"mri-q"};
    sys.admissionBacklogs = {4};
    EXPECT_THROW(workload::System(sys, sim::Config()),
                 sim::FatalError);
}
