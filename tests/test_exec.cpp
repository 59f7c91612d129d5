/**
 * Tests of the multi-process sweep executor (harness/exec): the
 * bit-exact wire codec, the crash-safe on-disk result cache, and —
 * via fault injection — the coordinator's whole robustness envelope:
 * SIGKILLed workers, wedged workers past the watchdog, interrupted
 * sweeps resuming from cache, and degradation to in-process
 * execution.  Every recovery path must end byte-identical to a clean
 * single-process run.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "harness/args.hh"
#include "harness/exec/cache.hh"
#include "harness/exec/coordinator.hh"
#include "harness/exec/wire.hh"
#include "harness/interrupt.hh"
#include "harness/suite.hh"
#include "sim/logging.hh"

using namespace gpump;
using namespace gpump::harness;

namespace {

/** The small grid shared by the executor tests (2 schemes x 3 plans). */
Batch
smallGrid()
{
    Suite suite("grid");
    suite.sizes({2})
        .uniform(/*count=*/3, /*base_seed=*/20140614)
        .minReplays(1)
        .scheme("FCFS", {"fcfs", "context_switch", "fcfs"})
        .scheme("DSS-CS", {"dss", "context_switch", "fcfs"});
    return suite.build();
}

/** Canonical rendering of a result for cross-run comparison:
 *  wallSeconds is host-timing noise (explicitly outside the
 *  determinism contract), everything else must match bit-for-bit. */
std::string
canon(RunResult r)
{
    r.wallSeconds = 0.0;
    return exec::encodeResult(r);
}

std::vector<std::string>
canonAll(const std::vector<RunResult> &results)
{
    std::vector<std::string> out;
    out.reserve(results.size());
    for (const RunResult &r : results)
        out.push_back(canon(r));
    return out;
}

/** Fresh scratch directory under the system temp dir; removed on
 *  destruction. */
struct TempDir
{
    std::filesystem::path path;

    explicit TempDir(const std::string &name)
        : path(std::filesystem::temp_directory_path() /
               (name + "." + std::to_string(::getpid())))
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }

    ~TempDir() { std::filesystem::remove_all(path); }

    std::string str() const { return path.string(); }
};

/** A RunResult exercising every codec field, including the values
 *  decimal formatting would mangle: NaN, infinities, denormals and
 *  full-precision doubles. */
RunResult
fullResult()
{
    RunResult r;
    r.index = 7;
    r.tag = "grid/size=2/plan=1/\"quoted\"\n\ttag";
    r.scheme = {"dss", "context_switch", "priority"};
    r.metrics.ntt = {1.0000000000000002, 2.5,
                     std::numeric_limits<double>::quiet_NaN()};
    r.metrics.antt = std::numeric_limits<double>::infinity();
    r.metrics.stp = -std::numeric_limits<double>::infinity();
    r.metrics.fairness = 5e-324; // smallest denormal
    r.isolatedUs = {123.4567891234567, 0.1};
    r.sys.meanTurnaroundUs = {1.0 / 3.0, 2.0 / 3.0};
    r.sys.meanLatencyUs = {9.999999999999998};
    r.sys.droppedRequests = {0, 42};
    r.sys.runs = {{{1, 2, 3}, {40, 50, 60}}, {}, {{7, 8, 9}}};
    r.sys.endTime = 9223372036854775807LL; // INT64_MAX survives
    r.sys.eventsExecuted = 123456789;
    r.sys.kernelsCompleted = 17;
    r.sys.preemptions = 3;
    r.sys.contextBytesSaved = 1.5e9;
    r.sys.maxPtbqDepth = 12.0;
    r.wallSeconds = 0.25;
    r.servingRun = true;
    serve::ClassMetrics c;
    c.name = "latency-critical";
    c.requests = 100;
    c.completed = 95;
    c.dropped = 5;
    c.deadlineMisses = 2;
    c.latency = {95, 10.5, 9.0, 30.000000000000004, 40.0, 41.5};
    c.missRate = 0.02105263157894737;
    c.throughputPerSec = 950.0;
    c.goodputPerSec = std::numeric_limits<double>::quiet_NaN();
    r.serving.classes.push_back(c);
    r.serving.windowFairness = 0.875;
    r.serving.windowUs = 1e6;
    return r;
}

} // namespace

// ---------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------

TEST(ExecWire, HexDoubleRoundTripsEveryValueClass)
{
    const double cases[] = {0.0,
                            -0.0,
                            1.0,
                            1.0 / 3.0,
                            -123.456789123456789,
                            5e-324,
                            std::numeric_limits<double>::max(),
                            std::numeric_limits<double>::min(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()};
    for (double v : cases) {
        double back = exec::parseHexDouble(exec::encodeHexDouble(v),
                                           "test");
        // Bit-exact, including the sign of zero.
        EXPECT_EQ(std::signbit(back), std::signbit(v));
        EXPECT_EQ(back, v) << exec::encodeHexDouble(v);
    }
    double nan_back = exec::parseHexDouble(
        exec::encodeHexDouble(std::numeric_limits<double>::quiet_NaN()),
        "test");
    EXPECT_TRUE(std::isnan(nan_back));
    EXPECT_THROW(exec::parseHexDouble("bogus", "test"),
                 sim::FatalError);
    EXPECT_THROW(exec::parseHexDouble("", "test"), sim::FatalError);
}

TEST(ExecWire, ResultRoundTripsBitExactIncludingServing)
{
    RunResult r = fullResult();
    std::string line = exec::encodeResult(r);
    RunResult back = exec::decodeResult(line);
    // Re-encoding the decoded result must reproduce the original line
    // byte-for-byte — string equality sidesteps NaN != NaN while still
    // asserting bit-exactness of every field.
    EXPECT_EQ(exec::encodeResult(back), line);
    EXPECT_EQ(back.tag, r.tag);
    EXPECT_EQ(back.sys.runs, r.sys.runs);
    EXPECT_EQ(back.sys.endTime, r.sys.endTime);
    ASSERT_EQ(back.serving.classes.size(), 1u);
    EXPECT_EQ(back.serving.classes[0].name, "latency-critical");
}

TEST(ExecWire, RejectsMalformedAndVersionMismatch)
{
    EXPECT_THROW(exec::parseJson("{\"a\":}"), sim::FatalError);
    EXPECT_THROW(exec::parseJson("{} trailing"), sim::FatalError);
    EXPECT_THROW(exec::parseJson(""), sim::FatalError);
    EXPECT_THROW(exec::decodeResult(std::string("{\"v\":999}")),
                 sim::FatalError);

    RunResult out;
    EXPECT_FALSE(exec::tryDecodeResult("not json", out));
    EXPECT_FALSE(exec::tryDecodeResult("{\"v\":1}", out));
    std::string line = exec::encodeResult(fullResult());
    EXPECT_TRUE(exec::tryDecodeResult(line, out));
    EXPECT_FALSE(
        exec::tryDecodeResult(line.substr(0, line.size() / 2), out));
}

// ---------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------

TEST(ExecCache, StoreLookupRoundTripAndTelemetry)
{
    TempDir dir("gpump_exec_cache");
    exec::ResultCache cache(dir.str());

    RunResult r = fullResult();
    EXPECT_FALSE(cache.lookup("key-a", r));
    EXPECT_EQ(cache.misses(), 1u);

    cache.store("key-a", fullResult());
    EXPECT_EQ(cache.stores(), 1u);
    RunResult back;
    ASSERT_TRUE(cache.lookup("key-a", back));
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(exec::encodeResult(back),
              exec::encodeResult(fullResult()));
}

TEST(ExecCache, CorruptAndTruncatedEntriesDegradeToMisses)
{
    TempDir dir("gpump_exec_corrupt");
    exec::ResultCache cache(dir.str());
    cache.store("key-a", fullResult());
    std::string entry =
        (dir.path / (exec::hashKey("key-a") + ".entry")).string();
    ASSERT_TRUE(std::filesystem::exists(entry));

    // Truncate mid-payload: a torn write must read as a miss and the
    // offending file must be deleted so the rerun can replace it.
    {
        auto size = std::filesystem::file_size(entry);
        std::filesystem::resize_file(entry, size / 2);
    }
    RunResult back;
    EXPECT_FALSE(cache.lookup("key-a", back));
    EXPECT_FALSE(std::filesystem::exists(entry));

    // Corrupt payload under an intact header: same contract.
    cache.store("key-a", fullResult());
    {
        std::ofstream os(entry, std::ios::trunc);
        os << "gpump-exec-cache v1\nkey-a\n{\"v\":1,garbage\nok\n";
    }
    EXPECT_FALSE(cache.lookup("key-a", back));
    EXPECT_FALSE(std::filesystem::exists(entry));

    // A colliding entry (same hash bucket, different key) is a miss
    // but must NOT be deleted — it belongs to some other request.
    cache.store("key-a", fullResult());
    {
        std::ofstream os(entry, std::ios::trunc);
        os << "gpump-exec-cache v1\nkey-b\n"
           << exec::encodeResult(fullResult()) << "\nok\n";
    }
    EXPECT_FALSE(cache.lookup("key-a", back));
    EXPECT_TRUE(std::filesystem::exists(entry));
}

TEST(ExecCache, RequestKeyCoversEverythingThatChangesAResult)
{
    Batch batch = smallGrid();
    sim::Config base;
    std::string k0 = exec::requestKey(base, batch.requests[0]);
    EXPECT_EQ(k0, exec::requestKey(base, batch.requests[0]));

    // Distinct scheme, plan or replay count => distinct key.
    EXPECT_NE(k0, exec::requestKey(base, batch.requests[1]));
    EXPECT_NE(k0, exec::requestKey(base, batch.requests[2]));
    RunRequest tweaked = batch.requests[0];
    tweaked.minReplays += 1;
    EXPECT_NE(k0, exec::requestKey(base, tweaked));
    tweaked = batch.requests[0];
    tweaked.overrides.set("gpu.num_sms", std::int64_t{4});
    EXPECT_NE(k0, exec::requestKey(base, tweaked));
    // ... and a *base*-config change reaches the key too.
    sim::Config other;
    other.set("gpu.num_sms", std::int64_t{4});
    EXPECT_NE(k0, exec::requestKey(other, batch.requests[0]));
}

TEST(ExecCache, StaleEntriesAreDetected)
{
    TempDir dir("gpump_exec_stale");
    exec::ResultCache cache(dir.str());
    cache.store("live-key", fullResult());
    cache.store("stale-key", fullResult());

    auto stale = cache.staleEntries({"live-key"});
    ASSERT_EQ(stale.size(), 1u);
    EXPECT_EQ(stale[0],
              (dir.path / (exec::hashKey("stale-key") + ".entry"))
                  .string());
    EXPECT_TRUE(cache.staleEntries({"live-key", "stale-key"}).empty());
}

// ---------------------------------------------------------------------
// Coordinator: identity and crash recovery
// ---------------------------------------------------------------------

TEST(ExecCoordinator, WorkersMatchThreadPoolByteForByte)
{
    Batch batch = smallGrid();
    Runner plain(sim::Config(), /*jobs=*/2);
    auto expected = canonAll(plain.run(batch.requests));

    Runner runner(sim::Config(), /*jobs=*/1);
    exec::ExecOptions opt;
    opt.workers = 3;
    exec::ExecStats stats;
    auto results =
        exec::runBatch(runner, batch.requests, opt, &stats);
    EXPECT_EQ(canonAll(results), expected);
    EXPECT_EQ(stats.computed, batch.requests.size());
    EXPECT_EQ(stats.requeues, 0u);
}

TEST(ExecCoordinator, SigkilledWorkerMidSweepIsRequeued)
{
    Batch batch = smallGrid();
    Runner plain(sim::Config(), /*jobs=*/1);
    auto expected = canonAll(plain.run(batch.requests));

    Runner runner(sim::Config(), /*jobs=*/1);
    exec::ExecOptions opt;
    opt.workers = 2;
    opt.backoffBaseSec = 0.01;
    opt.testKillAfterResults = 1; // SIGKILL a busy worker mid-sweep
    exec::ExecStats stats;
    auto results =
        exec::runBatch(runner, batch.requests, opt, &stats);
    EXPECT_EQ(canonAll(results), expected);
    EXPECT_GE(stats.requeues, 1u);
    EXPECT_GE(stats.respawns, 1u);
}

TEST(ExecCoordinator, WedgedWorkerTimesOutThenDegradesInProcess)
{
    Batch batch = smallGrid();
    Runner plain(sim::Config(), /*jobs=*/1);
    auto expected = canonAll(plain.run(batch.requests));

    // Every worker wedges on request 0, so the watchdog fires, the
    // retry budget drains, and the coordinator must finish request 0
    // itself (in-process) — with output still byte-identical.
    Runner runner(sim::Config(), /*jobs=*/1);
    exec::ExecOptions opt;
    opt.workers = 2;
    opt.requestTimeoutSec = 0.25;
    opt.maxRetries = 1;
    opt.backoffBaseSec = 0.01;
    opt.testHangOnIndex = 0;
    exec::ExecStats stats;
    auto results =
        exec::runBatch(runner, batch.requests, opt, &stats);
    EXPECT_EQ(canonAll(results), expected);
    EXPECT_GE(stats.timeouts, 2u); // initial try + one retry
    EXPECT_GE(stats.inProcess, 1u);
}

TEST(ExecCoordinator, InterruptedSweepResumesFromCacheByteIdentical)
{
    Batch batch = smallGrid();
    Runner plain(sim::Config(), /*jobs=*/1);
    auto expected = canonAll(plain.run(batch.requests));

    TempDir dir("gpump_exec_resume");

    // Phase 1 runs in a forked child that the abort hook _exit(3)s
    // right after the 2nd result hits the cache — a sweep killed
    // mid-run, with a genuinely half-populated cache directory.
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        Runner child(sim::Config(), /*jobs=*/1);
        exec::ExecOptions opt;
        opt.workers = 1;
        opt.cacheDir = dir.str();
        opt.testAbortAfterResults = 2;
        exec::runBatch(child, batch.requests, opt);
        ::_exit(0); // hook failed to fire: report it as a status
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 3);

    std::size_t entries = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir.path))
        entries += e.path().extension() == ".entry" ? 1 : 0;
    EXPECT_EQ(entries, 2u);

    // Phase 2: rerun against the same directory; the two completed
    // results load from cache, the rest compute, and the merged batch
    // is byte-identical to the uninterrupted single-process run.
    Runner runner(sim::Config(), /*jobs=*/1);
    exec::ExecOptions opt;
    opt.workers = 2;
    opt.cacheDir = dir.str();
    exec::ExecStats stats;
    auto results =
        exec::runBatch(runner, batch.requests, opt, &stats);
    EXPECT_EQ(canonAll(results), expected);
    EXPECT_EQ(stats.cacheHits, 2u);
    EXPECT_EQ(stats.computed, batch.requests.size() - 2);

    // Phase 3: a third run is all hits.
    Runner again(sim::Config(), /*jobs=*/1);
    exec::ExecStats stats2;
    auto cached =
        exec::runBatch(again, batch.requests, opt, &stats2);
    EXPECT_EQ(canonAll(cached), expected);
    EXPECT_EQ(stats2.cacheHits, batch.requests.size());
    EXPECT_EQ(stats2.computed, 0u);
}

TEST(ExecCoordinator, StrictModeFailsOnStaleCacheEntries)
{
    Batch batch = smallGrid();
    TempDir dir("gpump_exec_strictstale");

    Runner runner(sim::Config(), /*jobs=*/1);
    exec::ExecOptions opt;
    opt.workers = 2;
    opt.cacheDir = dir.str();
    exec::runBatch(runner, batch.requests, opt);

    // Plant an entry whose key matches no request of the sweep (a
    // fingerprint from some other config/code revision).
    exec::ResultCache(dir.str()).store("stale-key", fullResult());

    exec::ExecStats stats;
    Runner lax(sim::Config(), /*jobs=*/1);
    exec::runBatch(lax, batch.requests, opt, &stats);
    EXPECT_EQ(stats.staleEntries, 1u);

    opt.strictCache = true;
    Runner strict(sim::Config(), /*jobs=*/1);
    EXPECT_THROW(exec::runBatch(strict, batch.requests, opt),
                 sim::FatalError);
}

// ---------------------------------------------------------------------
// Flag validation and graceful interruption
// ---------------------------------------------------------------------

TEST(ExecFlags, ParallelismFlagsRejectNonPositiveValues)
{
    auto argsFor = [](const char *flag) {
        const char *argv[] = {"prog", flag};
        return Args(2, const_cast<char **>(argv));
    };
    EXPECT_THROW(argsFor("--jobs=0").flagPositiveInt("jobs", 1),
                 sim::FatalError);
    EXPECT_THROW(argsFor("--workers=-3").flagPositiveInt("workers", 0),
                 sim::FatalError);
    EXPECT_THROW(argsFor("--jobs=zap").flagPositiveInt("jobs", 1),
                 sim::FatalError);
    // Oversized values must not wrap when narrowed to int.
    EXPECT_THROW(argsFor("--jobs=4294967297").flagPositiveInt("jobs", 1),
                 sim::FatalError);
    EXPECT_THROW(
        argsFor("--workers=2147483648").flagPositiveInt("workers", 0),
        sim::FatalError);
    EXPECT_THROW(argsFor("--jobs=99999999999999999999")
                     .flagPositiveInt("jobs", 1),
                 sim::FatalError);
    EXPECT_EQ(argsFor("--workers=2147483647").flagPositiveInt("workers", 0),
              2147483647);
    EXPECT_EQ(argsFor("--jobs=8").flagPositiveInt("jobs", 1), 8);
    // Absent flag: default passes through unvalidated (0 means "off"
    // for --workers).
    EXPECT_EQ(argsFor("--jobs=8").flagPositiveInt("workers", 0), 0);
}

TEST(ExecInterrupt, RunnerStopsCleanlyAndReportsTheSignal)
{
    Batch batch = smallGrid();
    Runner runner(sim::Config(), /*jobs=*/2);

    installInterruptHandlers();
    ASSERT_FALSE(interruptRequested());
    ::raise(SIGTERM); // handler records it; SA_RESETHAND re-arms dfl
    ASSERT_TRUE(interruptRequested());

    try {
        runner.run(batch.requests);
        FAIL() << "expected InterruptedError";
    } catch (const InterruptedError &e) {
        EXPECT_EQ(e.signal(), SIGTERM);
    }

    // Cleared, the same Runner completes normally.
    clearInterruptForTesting();
    EXPECT_EQ(runner.run(batch.requests).size(),
              batch.requests.size());
}

TEST(ExecInterrupt, CoordinatorStopsCleanlyAndReportsTheSignal)
{
    Batch batch = smallGrid();
    Runner runner(sim::Config(), /*jobs=*/1);
    exec::ExecOptions opt;
    opt.workers = 2;

    installInterruptHandlers();
    ::raise(SIGTERM);
    ASSERT_TRUE(interruptRequested());
    EXPECT_THROW(exec::runBatch(runner, batch.requests, opt),
                 InterruptedError);
    clearInterruptForTesting();
}
