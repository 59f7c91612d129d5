/**
 * @file
 * Unit tests of the benchmark's own code: the tail-percentile rule,
 * self-time subtraction, digest sensitivity, failure counting and the
 * trace writer.
 */

#include <cmath>
#include <gtest/gtest.h>

#include "digest.hh"
#include "harness/exec/wire.hh"
#include "stats.hh"
#include "tracer.hh"
#include "workloads.hh"

using namespace perfbench;
using gpump::harness::RunResult;

namespace {

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(i);
    return v;
}

TEST(Stats, MedianOddEvenEmpty)
{
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({}), 0);
}

TEST(Stats, TailLeavesAtLeastTenBeyond)
{
    Tail t = tailPercentile(oneTo(100));
    EXPECT_EQ(t.n, 100u);
    EXPECT_EQ(t.percentile, 90);
    EXPECT_EQ(t.value, 90);
    EXPECT_EQ(t.beyondCount, 10u);

    // 156 samples: p93 sits at rank 146, ten below the top; p94
    // (rank 147) would leave only nine.
    t = tailPercentile(oneTo(156));
    EXPECT_EQ(t.percentile, 93);
    EXPECT_EQ(t.value, 146);
    EXPECT_EQ(t.beyondCount, 10u);
}

TEST(Stats, TailIsTheHighestSuchPercentile)
{
    for (int n = 11; n <= 400; ++n) {
        std::vector<double> v = oneTo(n);
        Tail t = tailPercentile(v);
        ASSERT_GE(t.beyondCount, 10u) << n;
        ASSERT_LT(t.percentile, 100) << n;
        std::sort(v.begin(), v.end());
        // One percentile higher must leave fewer than ten beyond.
        double next = nearestRank(v, t.percentile + 1);
        std::size_t above = static_cast<std::size_t>(n) -
            static_cast<std::size_t>(next);
        EXPECT_LT(above, 10u) << n;
    }
}

TEST(Stats, TailOfTooSmallSampleIsTheMaximum)
{
    Tail t = tailPercentile(oneTo(10));
    EXPECT_EQ(t.percentile, 100);
    EXPECT_EQ(t.value, 10);
    EXPECT_EQ(t.n, 10u);
    EXPECT_EQ(t.beyondCount, 0u);

    t = tailPercentile(oneTo(11));
    EXPECT_EQ(t.percentile, 9);
    EXPECT_EQ(t.value, 1);
    EXPECT_EQ(t.beyondCount, 10u);
}

Span
span(const char *name, int parent, double start, double end)
{
    Span s;
    s.name = name;
    s.parent = parent;
    s.startUs = start;
    s.endUs = end;
    return s;
}

TEST(Tracer, SelfTimeSubtractsNestedChildren)
{
    std::vector<Span> spans = {
        span("harness.request", -1, 0, 100),
        span("workload.System::System", 0, 10, 30),
        span("sim.System::run", 0, 40, 90),
        span("exec.encodeResult", 2, 50, 60),
    };
    std::vector<double> self = selfTimesUs(spans);
    EXPECT_DOUBLE_EQ(self[0], 30); // 100 - 20 - 50; grandchild not twice
    EXPECT_DOUBLE_EQ(self[1], 20);
    EXPECT_DOUBLE_EQ(self[2], 40);
    EXPECT_DOUBLE_EQ(self[3], 10);

    auto layers = selfTimeByLayerUs(spans);
    EXPECT_DOUBLE_EQ(layers.at("harness"), 30);
    EXPECT_DOUBLE_EQ(layers.at("sim"), 40);
    EXPECT_DOUBLE_EQ(layers.at("exec"), 10);
}

TEST(Tracer, OverlappingAndOverhangingChildrenCountOnce)
{
    std::vector<Span> spans = {
        span("harness.setup", -1, 0, 100),
        span("harness.Runner::isolatedTimeUs", 0, 10, 30),
        span("harness.Runner::isolatedTimeUs", 0, 20, 40),
        span("serve.makeTimelines", 0, 90, 120),
    };
    std::vector<double> self = selfTimesUs(spans);
    EXPECT_DOUBLE_EQ(self[0], 100 - 30 - 10);
}

TEST(Tracer, ScopesRecordParentsAndIds)
{
    Tracer t(true);
    {
        Tracer::Scope a(t, "harness.request", 7);
        {
            Tracer::Scope b(t, "sim.System::run", 7);
        }
        Tracer::Scope c(t, "exec.encodeResult", 7);
    }
    Tracer::Scope d(t, "harness.setup", -1);
    ASSERT_EQ(t.spans().size(), 4u);
    EXPECT_EQ(t.spans()[0].parent, -1);
    EXPECT_EQ(t.spans()[1].parent, 0);
    EXPECT_EQ(t.spans()[2].parent, 0);
    EXPECT_EQ(t.spans()[3].parent, -1);
    EXPECT_EQ(t.spans()[1].id, 7);
    EXPECT_GE(t.spans()[0].endUs, t.spans()[2].endUs);

    Tracer off(false);
    {
        Tracer::Scope e(off, "harness.request", 1);
    }
    EXPECT_TRUE(off.spans().empty());
}

TEST(Tracer, ChromeTraceIsStrictJson)
{
    std::vector<Span> spans = {span("harness.request", -1, 0, 5),
                               span("sim.System::run", 0, 1, NAN)};
    std::string json =
        chromeTraceJson(spans, {{"cpu_model", "a \"quoted\" cpu"}});
    EXPECT_EQ(json.find("nan"), std::string::npos);
    auto doc = gpump::harness::exec::parseJson(json);
    const auto *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->items.size(), 2u);
    EXPECT_EQ(events->items[1].get("cat", "cat").asString("cat"), "sim");
    EXPECT_EQ(doc.get("metadata", "m").get("cpu_model", "c").asString("c"),
              "a \"quoted\" cpu");
}

RunResult
sampleResult()
{
    RunResult r;
    r.metrics.ntt = {1.5, 2.25};
    r.metrics.antt = 1.875;
    r.metrics.stp = 1.2;
    r.metrics.fairness = 0.66;
    r.isolatedUs = {100.0, 200.0};
    r.sys.meanTurnaroundUs = {150.0, 450.0};
    r.sys.meanLatencyUs = {150.0, 450.0};
    r.sys.droppedRequests = {0, 0};
    r.sys.runs = {{{0, 150, 0}}, {{0, 450, 0}}};
    r.sys.endTime = 450;
    r.sys.kernelsCompleted = 12;
    r.sys.preemptions = 3;
    r.sys.contextBytesSaved = 4096.0;
    r.sys.maxPtbqDepth = 5.0;
    r.sys.eventsExecuted = 1000;
    r.wallSeconds = 0.5;
    return r;
}

TEST(Digest, IgnoresHostTimeAndEventCount)
{
    RunResult a = sampleResult();
    RunResult b = a;
    b.wallSeconds = 9.75;
    b.sys.eventsExecuted = 17;
    EXPECT_EQ(outcomeDigest(a), outcomeDigest(b));
}

TEST(Digest, OneUlpOfAnyOutcomeChangesIt)
{
    const RunResult a = sampleResult();
    const std::string d = outcomeDigest(a);
    auto flipped = [](double v) { return std::nextafter(v, 1e300); };

    RunResult b = a;
    b.metrics.antt = flipped(b.metrics.antt);
    EXPECT_NE(outcomeDigest(b), d);
    b = a;
    b.isolatedUs[1] = flipped(b.isolatedUs[1]);
    EXPECT_NE(outcomeDigest(b), d);
    b = a;
    b.sys.contextBytesSaved = flipped(b.sys.contextBytesSaved);
    EXPECT_NE(outcomeDigest(b), d);
    b = a;
    b.sys.runs[1][0].end += 1;
    EXPECT_NE(outcomeDigest(b), d);
    b = a;
    b.sys.preemptions += 1;
    EXPECT_NE(outcomeDigest(b), d);

    b = a;
    b.servingRun = true;
    gpump::serve::ClassMetrics c;
    c.name = "latency";
    c.latency.p99 = 10.0;
    b.serving.classes.push_back(c);
    const std::string served = outcomeDigest(b);
    EXPECT_NE(served, d);
    b.serving.classes[0].latency.p99 = flipped(10.0);
    EXPECT_NE(outcomeDigest(b), served);
}

TEST(Digest, CombinedDigestDependsOnOrder)
{
    EXPECT_NE(combineDigests({"a", "b"}), combineDigests({"b", "a"}));
    EXPECT_EQ(combineDigests({"a", "b"}), combineDigests({"a", "b"}));
}

TEST(Failures, CountsMissingMismatchedAndRequeued)
{
    const std::vector<std::string> ref = {"x", "y", "z"};
    EXPECT_EQ(countFailures({"x", "y", "z"}, ref, 0), 0u);
    EXPECT_EQ(countFailures({"x", "q", "z"}, ref, 0), 1u);
    EXPECT_EQ(countFailures({"x", "", "z"}, ref, 0), 1u);
    EXPECT_EQ(countFailures({"x", "y", "z"}, ref, 2), 2u);
    // Without a reference only missing results fail.
    EXPECT_EQ(countFailures({"x", "", "w"}, {}, 0), 1u);
    // An aborted batch fails every request, and never more.
    EXPECT_EQ(countFailures({"", "", ""}, ref, 5), 3u);
}

TEST(Workloads, CompletedExecutionTbsScaleWithRuns)
{
    gpump::harness::RunRequest req;
    req.plan.benchmarks = {"sgemm", "spmv"};
    RunResult r = sampleResult();
    r.sys.runs = {{}, {}};
    EXPECT_EQ(completedExecutionTbs(req, r), 0);
    r.sys.runs = {{{0, 1, 0}}, {}};
    const std::int64_t one = completedExecutionTbs(req, r);
    EXPECT_GT(one, 0);
    r.sys.runs = {{{0, 1, 0}, {1, 2, 1}}, {}};
    EXPECT_EQ(completedExecutionTbs(req, r), 2 * one);
}

TEST(Workloads, ObserverSchemes)
{
    EXPECT_TRUE(observesCompletions({"dss", "pred_adaptive", "fcfs"}));
    EXPECT_TRUE(
        observesCompletions({"bore_burst", "context_switch", "priority"}));
    EXPECT_FALSE(observesCompletions({"dss", "adaptive", "fcfs"}));
}

} // namespace
