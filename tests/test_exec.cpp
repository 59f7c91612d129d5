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

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "harness/args.hh"
#include "harness/exec/cache.hh"
#include "harness/exec/coordinator.hh"
#include "harness/exec/wire.hh"
#include "harness/interrupt.hh"
#include "harness/suite.hh"
#include "serve/arrival.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "tests/test_util.hh"

using namespace gpump;
using namespace gpump::harness;

namespace {

/** The small grid shared by the executor tests (2 schemes x 3 plans). */
Batch
smallGrid(const std::string &name = "grid")
{
    Suite suite(name);
    suite.sizes({2})
        .uniform(/*count=*/3, /*base_seed=*/20140614)
        .minReplays(1)
        .scheme("FCFS", {"fcfs", "context_switch", "fcfs"})
        .scheme("DSS-CS", {"dss", "context_switch", "fcfs"});
    return suite.build();
}

/** Canonical rendering of a result for cross-run comparison: its
 *  identity, which the wire leaves out, then its wire payload.
 *  wallSeconds is host-timing noise (explicitly outside the
 *  determinism contract), everything else must match bit-for-bit. */
std::string
canon(RunResult r)
{
    r.wallSeconds = 0.0;
    return r.tag + "|" + r.scheme.policy + "/" + r.scheme.mechanism +
        "/" + r.scheme.transferPolicy + "|" + exec::encodeResult(r);
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

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** The bytes writeResultsJsonl writes for @p results. */
std::string
jsonlRows(const TempDir &dir, const Batch &batch,
          const std::vector<RunResult> &results)
{
    return readFile(writeResultsJsonl((dir.path / "rows.jsonl").string(),
                                      batch, results));
}

/** A double that is often one a lossy codec would mangle: NaN of
 *  either sign, an infinity, a signed zero, a denormal, DBL_MAX, or
 *  any bit pattern at all (NaN payloads included). */
double
randomDouble(sim::Rng &rng)
{
    using lim = std::numeric_limits<double>;
    const double special[] = {lim::quiet_NaN(),   -lim::quiet_NaN(),
                              lim::infinity(),    -lim::infinity(),
                              0.0,                -0.0,
                              lim::denorm_min(),  -lim::denorm_min(),
                              lim::max(),         -lim::max()};
    const std::uint64_t n = std::size(special);
    std::uint64_t pick = rng.uniformInt(2 * n);
    if (pick < n)
        return special[pick];
    std::uint64_t bits = rng.next();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

std::int64_t
randomInt64(sim::Rng &rng)
{
    switch (rng.uniformInt(std::uint64_t{4})) {
      case 0: return std::numeric_limits<std::int64_t>::min();
      case 1: return std::numeric_limits<std::int64_t>::max();
      case 2:
        return -5 + static_cast<std::int64_t>(
                        rng.uniformInt(std::uint64_t{11}));
      default: return static_cast<std::int64_t>(rng.next());
    }
}

std::uint64_t
randomUint64(sim::Rng &rng)
{
    switch (rng.uniformInt(std::uint64_t{4})) {
      case 0: return std::numeric_limits<std::uint64_t>::max();
      case 1: return std::uint64_t{1} << 63;
      case 2: return rng.uniformInt(std::uint64_t{5});
      default: return rng.next();
    }
}

/** 0-3 elements drawn by @p draw. */
template <typename T, typename Draw>
std::vector<T>
randomVector(sim::Rng &rng, Draw draw)
{
    std::vector<T> out(rng.uniformInt(std::uint64_t{4}));
    for (T &v : out)
        v = draw(rng);
    return out;
}

/** A RunResult with every outcome field random: empty and non-empty
 *  vectors, 0-3 processes of 0-3 run records, serving on or off with
 *  0-3 classes whose names need JSON escaping, extreme integers. */
RunResult
randomResult(sim::Rng &rng)
{
    const char name_chars[] = {'a', 'Z', '"', '\\', '\n', '\t', '\r',
                               '\0', '\x01', '\x1f', '\x7f', '/',
                               ' ', '\xe9'};
    auto name = [&name_chars](sim::Rng &g) {
        std::string s;
        for (std::uint64_t n = g.uniformInt(std::uint64_t{6}); n > 0; --n)
            s += name_chars[g.uniformInt(std::size(name_chars))];
        return s;
    };

    RunResult r;
    r.metrics.ntt = randomVector<double>(rng, randomDouble);
    r.metrics.antt = randomDouble(rng);
    r.metrics.stp = randomDouble(rng);
    r.metrics.fairness = randomDouble(rng);
    r.isolatedUs = randomVector<double>(rng, randomDouble);
    r.sys.meanTurnaroundUs = randomVector<double>(rng, randomDouble);
    r.sys.meanLatencyUs = randomVector<double>(rng, randomDouble);
    r.sys.droppedRequests = randomVector<std::int64_t>(rng, randomInt64);
    r.sys.runs = randomVector<std::vector<workload::RunRecord>>(
        rng, [](sim::Rng &g) {
            return randomVector<workload::RunRecord>(g, [](sim::Rng &h) {
                return workload::RunRecord{randomInt64(h), randomInt64(h),
                                           randomInt64(h)};
            });
        });
    r.sys.endTime = randomInt64(rng);
    r.sys.eventsExecuted = randomUint64(rng);
    r.sys.kernelsCompleted = randomUint64(rng);
    r.sys.preemptions = randomUint64(rng);
    r.sys.contextBytesSaved = randomDouble(rng);
    r.sys.maxPtbqDepth = randomDouble(rng);
    r.wallSeconds = randomDouble(rng);
    r.servingRun = rng.uniformInt(std::uint64_t{2}) == 1;
    if (r.servingRun) {
        r.serving.classes = randomVector<serve::ClassMetrics>(
            rng, [&name](sim::Rng &g) {
                serve::ClassMetrics c;
                c.name = name(g);
                c.requests = randomInt64(g);
                c.completed = randomInt64(g);
                c.dropped = randomInt64(g);
                c.deadlineMisses = randomInt64(g);
                c.latency.n = randomInt64(g);
                c.latency.mean = randomDouble(g);
                c.latency.p50 = randomDouble(g);
                c.latency.p99 = randomDouble(g);
                c.latency.p999 = randomDouble(g);
                c.latency.max = randomDouble(g);
                c.missRate = randomDouble(g);
                c.throughputPerSec = randomDouble(g);
                c.goodputPerSec = randomDouble(g);
                return c;
            });
        r.serving.windowFairness = randomDouble(rng);
        r.serving.windowUs = randomDouble(rng);
    }
    return r;
}

/** @p line with the value of its first @p key field replaced by the
 *  raw token @p token. */
std::string
withToken(const std::string &line, const std::string &key,
          const std::string &token)
{
    std::size_t at = line.find("\"" + key + "\":");
    EXPECT_NE(at, std::string::npos) << key;
    at += key.size() + 3;
    return line.substr(0, at) + token +
        line.substr(line.find_first_of(",}", at));
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
    // A NaN keeps its sign: on x86, 0.0/0.0 computed at run time sets
    // it, and an in-process table cell prints that NaN as "-nan".
    volatile double zero = 0.0;
    const double nans[] = {zero / zero,
                           std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN()};
    for (double nan : nans) {
        double back =
            exec::parseHexDouble(exec::encodeHexDouble(nan), "test");
        EXPECT_TRUE(std::isnan(back));
        EXPECT_EQ(std::signbit(back), std::signbit(nan))
            << exec::encodeHexDouble(nan);
    }
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
    // Identity does not travel: the receiver stamps it from the request.
    EXPECT_TRUE(back.tag.empty());
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

TEST(ExecWire, IntegersKeepTheirExactValueOrFailToDecode)
{
    using i64 = std::numeric_limits<std::int64_t>;
    using u64 = std::numeric_limits<std::uint64_t>;
    RunResult r = fullResult();
    r.sys.endTime = i64::min();
    r.sys.runs = {{{i64::min(), i64::max(), -1}}};
    r.sys.droppedRequests = {i64::min(), i64::max()};
    r.sys.eventsExecuted = u64::max();
    r.sys.kernelsCompleted = std::uint64_t{1} << 63;
    r.sys.preemptions = 0;
    r.serving.classes[0].requests = i64::min();
    RunResult back = exec::decodeResult(exec::encodeResult(r));
    EXPECT_EQ(back.sys.endTime, i64::min());
    EXPECT_EQ(back.sys.runs, r.sys.runs);
    EXPECT_EQ(back.sys.droppedRequests, r.sys.droppedRequests);
    EXPECT_EQ(back.sys.eventsExecuted, u64::max());
    EXPECT_EQ(back.sys.kernelsCompleted, std::uint64_t{1} << 63);
    EXPECT_EQ(back.sys.preemptions, 0u);
    EXPECT_EQ(back.serving.classes[0].requests, i64::min());

    // A token beyond its field's range, or negative in an unsigned
    // field, fails the decode instead of being clamped or wrapped.
    const std::string line = exec::encodeResult(fullResult());
    RunResult out;
    for (const char *key : {"events", "kernels", "preemptions"}) {
        EXPECT_TRUE(exec::tryDecodeResult(
            withToken(line, key, "18446744073709551615"), out));
        EXPECT_FALSE(exec::tryDecodeResult(
            withToken(line, key, "18446744073709551616"), out))
            << key;
        EXPECT_FALSE(exec::tryDecodeResult(withToken(line, key, "-1"), out))
            << key;
        EXPECT_FALSE(exec::tryDecodeResult(withToken(line, key, "-0"), out))
            << key;
    }
    EXPECT_TRUE(exec::tryDecodeResult(
        withToken(line, "end_time", "-9223372036854775808"), out));
    EXPECT_FALSE(exec::tryDecodeResult(
        withToken(line, "end_time", "9223372036854775808"), out));
    EXPECT_FALSE(exec::tryDecodeResult(
        withToken(line, "end_time", "99999999999999999999"), out));
    EXPECT_FALSE(exec::tryDecodeResult(
        withToken(line, "end_time", "-99999999999999999999"), out));
}

TEST(ExecWire, RandomResultsRoundTripAndWriteTheSameJsonl)
{
    sim::Rng rng(20140614);
    std::vector<RunResult> plain, served, plain_back, served_back;
    for (int i = 0; i < 1200; ++i) {
        RunResult r = randomResult(rng);
        const std::string line = exec::encodeResult(r);
        RunResult back = exec::decodeResult(line);
        ASSERT_EQ(exec::encodeResult(back), line);
        (r.servingRun ? served : plain).push_back(std::move(r));
        (back.servingRun ? served_back : plain_back)
            .push_back(std::move(back));
    }
    ASSERT_FALSE(plain.empty());
    ASSERT_FALSE(served.empty());

    // The JSONL row is written by hand, not from the field list: a
    // field the decoder dropped or bent would change its bytes.
    Suite plain_suite("plain");
    plain_suite.sizes({2})
        .uniform(static_cast<int>(plain.size()), 1)
        .scheme("FCFS", {"fcfs", "context_switch", "fcfs"});
    Batch plain_batch = plain_suite.build();

    std::vector<serve::ScenarioSpec> scenarios(served.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        scenarios[i].name = "s" + std::to_string(i);
        serve::TenantSpec t;
        t.benchmark = "mri-q";
        scenarios[i].tenants.push_back(t);
    }
    Suite serving_suite("served");
    serving_suite.serving(scenarios).scheme(
        "FCFS", {"fcfs", "context_switch", "fcfs"});
    Batch serving_batch = serving_suite.build();

    TempDir dir("gpump_exec_rows");
    const std::string plain_rows = jsonlRows(dir, plain_batch, plain);
    EXPECT_EQ(jsonlRows(dir, plain_batch, plain_back), plain_rows);
    const std::string served_rows = jsonlRows(dir, serving_batch, served);
    EXPECT_NE(served_rows.find("\"latency_p99_us\""), std::string::npos);
    EXPECT_EQ(jsonlRows(dir, serving_batch, served_back), served_rows);
}

TEST(ExecFuzz, MutatedPayloadsAndCacheEntriesFailCleanly)
{
    RunResult plain = fullResult();
    plain.servingRun = false;
    const std::string payloads[] = {exec::encodeResult(fullResult()),
                                    exec::encodeResult(plain)};
    TempDir dir("gpump_exec_fuzz");
    exec::ResultCache cache(dir.str());
    const std::string key = "cfg{fuzz};plan{fuzz}";
    cache.store(key, fullResult());
    const std::string entry_path =
        (dir.path / (exec::hashKey(key) + ".entry")).string();
    const std::string entry = readFile(entry_path);

    // Every truncation, then seeded single-byte flips, inserts and
    // deletes (1,700 per input, 5,100 in all).
    sim::Rng rng(20140614);
    auto mutants = [&rng](const std::string &in) {
        std::vector<std::string> out;
        for (std::size_t n = 0; n < in.size(); ++n)
            out.push_back(in.substr(0, n));
        for (int i = 0; i < 1700; ++i) {
            std::string m = in;
            std::size_t at = rng.uniformInt(std::uint64_t{m.size()});
            auto byte = static_cast<char>(
                1 + rng.uniformInt(std::uint64_t{255}));
            switch (rng.uniformInt(std::uint64_t{3})) {
              case 0: m[at] = static_cast<char>(m[at] ^ byte); break;
              case 1: m.insert(at, 1, byte); break;
              default: m.erase(at, 1);
            }
            out.push_back(std::move(m));
        }
        return out;
    };

    for (const std::string &payload : payloads) {
        for (const std::string &m : mutants(payload)) {
            try {
                exec::decodeResult(m);
            } catch (const sim::FatalError &) {
                // The only way decodeResult may refuse its input.
            } catch (const std::exception &e) {
                ADD_FAILURE() << "decodeResult threw '" << e.what()
                              << "' on " << m;
            }
            RunResult out;
            EXPECT_NO_THROW(exec::tryDecodeResult(m, out)) << m;
        }
    }

    std::size_t hits = 0;
    for (const std::string &m : mutants(entry)) {
        {
            std::ofstream os(entry_path, std::ios::binary | std::ios::trunc);
            os << m;
        }
        RunResult out;
        bool hit = false;
        EXPECT_NO_THROW(hit = cache.lookup(key, out)) << m;
        if (!hit)
            continue;
        ++hits;
        // A hit needs the key line intact.
        std::size_t line2 = m.find('\n') + 1;
        EXPECT_EQ(m.substr(line2, m.find('\n', line2) - line2), key) << m;
    }
    EXPECT_GT(hits, 0u); // the loop reached the decode, not just the key
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

TEST(ExecCache, RequestKeyCoversServingScenario)
{
    // ScenarioSpec::fingerprint() is the serving request's key: equal
    // scenarios share it, and any field that changes the offered load
    // or the run changes it, down to the last bit of a trace offset.
    serve::TenantSpec tenant;
    tenant.benchmark = "mri-q";
    tenant.arrivals.kind = serve::ArrivalSpec::Kind::Trace;
    tenant.arrivals.traceUs = {100.0, 2500.0};
    serve::ScenarioSpec scenario;
    scenario.tenants.push_back(tenant);

    const sim::Config base;
    auto key = [&](const serve::ScenarioSpec &spec) {
        RunRequest req;
        req.serving = std::make_shared<serve::ScenarioSpec>(spec);
        return exec::requestKey(base, req);
    };
    const std::string k0 = key(scenario);
    EXPECT_EQ(k0, key(scenario));

    std::vector<std::function<void(serve::ScenarioSpec &)>> changes = {
        [](serve::ScenarioSpec &s) {
            s.tenants[0].arrivals.traceUs[1] = 2600.0;
        },
        [](serve::ScenarioSpec &s) {
            s.tenants[0].arrivals.traceUs[1] =
                std::nextafter(2500.0, 3000.0);
        },
        [](serve::ScenarioSpec &s) {
            s.tenants[0].arrivals.traceUs.push_back(2500.0);
        },
        [](serve::ScenarioSpec &s) {
            s.tenants[0].arrivals.kind = serve::ArrivalSpec::Kind::Poisson;
        },
        [](serve::ScenarioSpec &s) { s.tenants[0].priority = 1; },
        [](serve::ScenarioSpec &s) { s.tenants[0].deadlineUs = 500.0; },
        [](serve::ScenarioSpec &s) { s.tenants[0].maxBacklog = 2; },
        [](serve::ScenarioSpec &s) { s.tenants.push_back(s.tenants[0]); },
        [](serve::ScenarioSpec &s) { s.horizonUs *= 2.0; },
        [](serve::ScenarioSpec &s) { s.seed += 1; },
    };
    for (std::size_t i = 0; i < changes.size(); ++i) {
        serve::ScenarioSpec changed = scenario;
        changes[i](changed);
        EXPECT_NE(key(changed), k0) << "change " << i;
    }
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

TEST(ExecCoordinator, WorkersMatchInProcessRunByteForByte)
{
    Batch batch = smallGrid();
    Runner plain(sim::Config(), /*jobs=*/1);
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

TEST(ExecCoordinator, UnreadConfigKeyIsFatalInProcessAndOnWorkers)
{
    // A key no System reads is a FatalError at --jobs=1, and a forked
    // worker's FatalError reaches the caller unretried at --jobs=2.
    Batch batch = smallGrid();
    sim::Config typo;
    typo.set("gpu.num_smz", std::int64_t{208});
    for (int jobs : {1, 2}) {
        Runner runner(typo, jobs);
        std::string msg =
            test::fatalMessageOf([&] { runner.run(batch.requests); });
        EXPECT_NE(msg.find("did you mean 'gpu.num_sms'"),
                  std::string::npos)
            << "jobs=" << jobs << ": " << msg;
        // The coordinator names the request a worker failed.
        EXPECT_EQ(msg.find("request '") != std::string::npos, jobs > 1)
            << "jobs=" << jobs << ": " << msg;
    }
}

TEST(ExecCoordinator, OneJobBatchRunsInProcessAndFillsTheCache)
{
    Batch batch = smallGrid();
    Runner plain(sim::Config(), /*jobs=*/1);
    auto expected = canonAll(plain.run(batch.requests));

    // At one job the coordinator forks no worker, cache or not: it
    // runs every request itself and stores each result.
    TempDir dir("gpump_exec_onejob");
    exec::ExecOptions opt;
    opt.cacheDir = dir.str();
    Runner runner(sim::Config(), /*jobs=*/1);
    exec::ExecStats stats;
    auto results =
        exec::runBatch(runner, batch.requests, opt, &stats);
    EXPECT_EQ(canonAll(results), expected);
    EXPECT_EQ(stats.computed, 0u);
    EXPECT_EQ(stats.inProcess, batch.requests.size());
    EXPECT_EQ(stats.cacheHits, 0u);

    Runner again(sim::Config(), /*jobs=*/1);
    exec::ExecStats rerun;
    auto cached = exec::runBatch(again, batch.requests, opt, &rerun);
    EXPECT_EQ(canonAll(cached), expected);
    EXPECT_EQ(rerun.cacheHits, batch.requests.size());
    EXPECT_EQ(rerun.computed, 0u);
    EXPECT_EQ(rerun.inProcess, 0u);
}

TEST(ExecCoordinator, SigkilledWorkerMidSweepIsRequeued)
{
    Batch batch = smallGrid();
    Runner plain(sim::Config(), /*jobs=*/1);
    auto expected = canonAll(plain.run(batch.requests));

    Runner runner(sim::Config(), /*jobs=*/1);
    exec::ExecOptions opt;
    opt.workers = 2;
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
    const auto t0 = std::chrono::steady_clock::now();
    auto expected = canonAll(plain.run(batch.requests));
    const double batch_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();

    // Every worker wedges on request 0, so the watchdog fires on each
    // of its three tries (the first and kMaxRetries = 2 retries), and
    // the coordinator must finish request 0 itself (in-process) — with
    // output still byte-identical.  The watchdog sits far above any
    // healthy request: the whole batch, isolated baselines included,
    // took batch_s in process, so only the wedge may time out.
    Runner runner(sim::Config(), /*jobs=*/1);
    exec::ExecOptions opt;
    opt.workers = 2;
    opt.requestTimeoutSec = std::max(0.2, 3.0 * batch_s);
    opt.testHangOnIndex = 0;
    exec::ExecStats stats;
    auto results =
        exec::runBatch(runner, batch.requests, opt, &stats);
    EXPECT_EQ(canonAll(results), expected);
    EXPECT_EQ(stats.timeouts, 3u) << "watchdog " << opt.requestTimeoutSec;
    EXPECT_EQ(stats.requeues, 3u);
    EXPECT_EQ(stats.inProcess, 1u);
    EXPECT_EQ(stats.computed, batch.requests.size() - 1);
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

TEST(ExecCoordinator, SharedCacheServesResultsUnderTheRequestsIdentity)
{
    // Two benches that run one grid under different suite names (as
    // fig7_dss and fig8_antt_curves do) share a cache directory.
    Batch first = smallGrid("first");
    Batch second = smallGrid("second");
    TempDir dir("gpump_exec_shared");
    exec::ExecOptions opt;
    opt.workers = 2;
    opt.cacheDir = dir.str();

    Runner computing(sim::Config(), /*jobs=*/1);
    computing.setExec(opt);
    auto computed = computing.run(first.requests);

    Runner serving(sim::Config(), /*jobs=*/1);
    exec::ExecStats stats;
    auto cached = exec::runBatch(serving, second.requests, opt, &stats);
    ASSERT_EQ(stats.cacheHits, second.requests.size());

    for (std::size_t i = 0; i < second.requests.size(); ++i) {
        EXPECT_EQ(computed[i].tag, first.requests[i].tag);
        EXPECT_EQ(cached[i].index, i);
        EXPECT_EQ(cached[i].tag, second.requests[i].tag);
        EXPECT_EQ(cached[i].scheme.policy,
                  second.requests[i].scheme.policy);
        EXPECT_EQ(cached[i].scheme.mechanism,
                  second.requests[i].scheme.mechanism);
        EXPECT_EQ(cached[i].scheme.transferPolicy,
                  second.requests[i].scheme.transferPolicy);
    }

    // Its rows equal an uncached run's; zeroing the wall time on both
    // sides blanks the two host-timing columns.
    Runner plain(sim::Config(), /*jobs=*/1);
    auto uncached = plain.run(second.requests);
    for (RunResult &r : cached)
        r.wallSeconds = 0.0;
    for (RunResult &r : uncached)
        r.wallSeconds = 0.0;
    EXPECT_EQ(jsonlRows(dir, second, cached),
              jsonlRows(dir, second, uncached));
}

// ---------------------------------------------------------------------
// Flag validation and graceful interruption
// ---------------------------------------------------------------------

TEST(ExecFlags, ParallelismFlagsRejectNonPositiveValues)
{
    auto argsFor = [](const char *flag) {
        const char *argv[] = {"prog", flag};
        return Args(2, const_cast<char **>(argv), {"jobs"});
    };
    EXPECT_THROW(argsFor("--jobs=0").flagPositiveInt("jobs", 1),
                 sim::FatalError);
    EXPECT_THROW(argsFor("--jobs=-3").flagPositiveInt("jobs", 1),
                 sim::FatalError);
    EXPECT_THROW(argsFor("--jobs=zap").flagPositiveInt("jobs", 1),
                 sim::FatalError);
    // Oversized values must not wrap when narrowed to int.
    EXPECT_THROW(argsFor("--jobs=4294967297").flagPositiveInt("jobs", 1),
                 sim::FatalError);
    EXPECT_THROW(argsFor("--jobs=2147483648").flagPositiveInt("jobs", 1),
                 sim::FatalError);
    EXPECT_THROW(argsFor("--jobs=99999999999999999999")
                     .flagPositiveInt("jobs", 1),
                 sim::FatalError);
    EXPECT_EQ(argsFor("--jobs=2147483647").flagPositiveInt("jobs", 1),
              2147483647);
    EXPECT_EQ(argsFor("--jobs=8").flagPositiveInt("jobs", 1), 8);
    // Absent flag: the default passes through unvalidated.
    const char *argv[] = {"prog"};
    EXPECT_EQ(Args(1, const_cast<char **>(argv)).flagPositiveInt("jobs", 0),
              0);
}

TEST(ExecFlags, TestHookVariablesParseStrictly)
{
    // An unreadable value is fatal and names its variable; it must
    // never arm a hook at 0 or switch strict mode on.
    const std::pair<const char *, const char *> bad[] = {
        {"GPUMP_EXEC_TEST_ABORT_AFTER", "x"},
        {"GPUMP_EXEC_TEST_ABORT_AFTER", ""},
        {"GPUMP_EXEC_TEST_ABORT_AFTER", "2147483648"},
        {"GPUMP_EXEC_TEST_KILL_AFTER", "x"},
        {"GPUMP_EXEC_TEST_KILL_AFTER", "3 "},
        {"GPUMP_EXEC_CACHE_STRICT", "maybe"},
        {"GPUMP_EXEC_CACHE_STRICT", ""},
    };
    for (const auto &[var, value] : bad) {
        ASSERT_EQ(::setenv(var, value, 1), 0);
        exec::ExecOptions opt;
        std::string msg = test::fatalMessageOf([&] { opt.applyTestEnv(); });
        EXPECT_NE(msg.find(var), std::string::npos)
            << var << "='" << value << "': " << msg;
        ::unsetenv(var);
    }

    ::setenv("GPUMP_EXEC_TEST_ABORT_AFTER", "010", 1);
    ::setenv("GPUMP_EXEC_TEST_KILL_AFTER", "0x10", 1);
    ::setenv("GPUMP_EXEC_CACHE_STRICT", "false", 1);
    exec::ExecOptions opt;
    opt.strictCache = true;
    opt.applyTestEnv();
    EXPECT_EQ(opt.testAbortAfterResults, 10);
    EXPECT_EQ(opt.testKillAfterResults, 16);
    EXPECT_FALSE(opt.strictCache);
    ::setenv("GPUMP_EXEC_CACHE_STRICT", "on", 1);
    opt.applyTestEnv();
    EXPECT_TRUE(opt.strictCache);
    ::unsetenv("GPUMP_EXEC_TEST_ABORT_AFTER");
    ::unsetenv("GPUMP_EXEC_TEST_KILL_AFTER");
    ::unsetenv("GPUMP_EXEC_CACHE_STRICT");
}

TEST(ExecInterrupt, RunnerStopsCleanlyAndReportsTheSignal)
{
    // One job runs in process, two in forked workers.
    Batch batch = smallGrid();
    for (int jobs : {1, 2}) {
        Runner runner(sim::Config(), jobs);

        installInterruptHandlers();
        ASSERT_FALSE(interruptRequested());
        ::raise(SIGTERM); // handler records it; SA_RESETHAND re-arms dfl
        ASSERT_TRUE(interruptRequested());

        try {
            runner.run(batch.requests);
            FAIL() << "expected InterruptedError at jobs=" << jobs;
        } catch (const InterruptedError &e) {
            EXPECT_EQ(e.signal(), SIGTERM);
        }

        // Cleared, the same Runner completes normally.
        clearInterruptForTesting();
        EXPECT_EQ(runner.run(batch.requests).size(),
                  batch.requests.size());
    }
}

TEST(ExecInterrupt, OneJobBatchStopsBetweenRequests)
{
    // The signal lands while the first request runs (its progress
    // callback stands in for a Ctrl-C); the second must not start.
    Batch batch = smallGrid();
    Runner runner(sim::Config(), /*jobs=*/1);
    std::size_t calls = 0;
    runner.setProgress([&calls](std::size_t, std::size_t,
                                const RunRequest &, const RunResult &) {
        if (++calls == 1)
            ::raise(SIGTERM);
    });
    installInterruptHandlers();
    try {
        exec::runBatch(runner, batch.requests, exec::ExecOptions());
        ADD_FAILURE() << "expected InterruptedError";
    } catch (const InterruptedError &e) {
        EXPECT_EQ(e.signal(), SIGTERM);
        std::string after =
            sim::strformat("after 1/%zu requests", batch.requests.size());
        EXPECT_NE(std::string(e.what()).find(after), std::string::npos)
            << e.what();
    }
    EXPECT_EQ(calls, 1u);
    clearInterruptForTesting();
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
