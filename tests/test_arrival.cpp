/**
 * Unit tests for serve/arrival.hh: timeline determinism (regeneration
 * and a sequential-draw reference), monotonicity and bounds, and the
 * arrival-trace file format: round trip, rejection of malformed
 * lines, and a seeded fuzz of the reader.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/arrival.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "tests/test_util.hh"

using namespace gpump;
using serve::ArrivalSpec;

namespace {

std::vector<sim::SimTime>
timeline(const ArrivalSpec &spec, std::uint64_t seed, double horizon_us,
         std::size_t cap = 1u << 20)
{
    sim::Rng rng(seed);
    return serve::makeTimeline(spec, rng, sim::microseconds(horizon_us),
                               cap);
}

/** A unique scratch path under the build tree. */
std::string
scratchPath(const std::string &name)
{
    return "test_arrival_scratch_" + name;
}

} // namespace

TEST(Arrival, PoissonRegenerationIsBitIdentical)
{
    ArrivalSpec spec;
    spec.kind = ArrivalSpec::Kind::Poisson;
    spec.ratePerSec = 2000.0;
    auto a = timeline(spec, 42, 50e3);
    auto b = timeline(spec, 42, 50e3);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(Arrival, PoissonMatchesSequentialDrawReference)
{
    // The generator draws one exponential() per gap, so a
    // hand-rolled sequential generator must reproduce the timeline
    // exactly.
    ArrivalSpec spec;
    spec.kind = ArrivalSpec::Kind::Poisson;
    spec.ratePerSec = 1500.0;
    const double horizon_us = 80e3;
    auto generated = timeline(spec, 7, horizon_us);

    sim::Rng ref(7);
    std::vector<sim::SimTime> expected;
    double t_us = 0.0;
    for (;;) {
        t_us += ref.exponential(1e6 / spec.ratePerSec);
        if (t_us >= horizon_us)
            break;
        expected.push_back(sim::microseconds(t_us));
    }
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(generated, expected);
}

TEST(Arrival, TimelinesAreMonotoneAndInsideHorizon)
{
    for (auto kind :
         {ArrivalSpec::Kind::Poisson, ArrivalSpec::Kind::Bursty}) {
        ArrivalSpec spec;
        spec.kind = kind;
        spec.ratePerSec = 5000.0;
        spec.burstMeanUs = 2000.0;
        spec.idleMeanUs = 1000.0;
        const sim::SimTime horizon = sim::microseconds(40e3);
        sim::Rng rng(3);
        auto t = serve::makeTimeline(spec, rng, horizon);
        ASSERT_FALSE(t.empty());
        for (std::size_t i = 0; i < t.size(); ++i) {
            EXPECT_GE(t[i], 0);
            EXPECT_LT(t[i], horizon);
            if (i > 0) {
                EXPECT_GE(t[i], t[i - 1]);
            }
        }
    }
}

TEST(Arrival, MaxRequestsCapsTimelineLength)
{
    ArrivalSpec spec;
    spec.kind = ArrivalSpec::Kind::Poisson;
    spec.ratePerSec = 1e6; // one per microsecond: horizon won't bind
    auto t = timeline(spec, 11, 1e6, 100);
    EXPECT_EQ(t.size(), 100u);
}

TEST(Arrival, BurstyRegenerationIsBitIdentical)
{
    ArrivalSpec spec;
    spec.kind = ArrivalSpec::Kind::Bursty;
    spec.ratePerSec = 10000.0;
    spec.burstMeanUs = 500.0;
    spec.idleMeanUs = 1500.0;
    auto a = timeline(spec, 99, 60e3);
    auto b = timeline(spec, 99, 60e3);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(Arrival, BurstyIsActuallyBursty)
{
    // With ON periods much denser than the average rate, the largest
    // inter-arrival gap (an OFF period) should dwarf the median gap.
    ArrivalSpec spec;
    spec.kind = ArrivalSpec::Kind::Bursty;
    spec.ratePerSec = 50000.0;
    spec.burstMeanUs = 200.0;
    spec.idleMeanUs = 5000.0;
    auto t = timeline(spec, 5, 100e3);
    ASSERT_GT(t.size(), 20u);
    sim::SimTime max_gap = 0;
    for (std::size_t i = 1; i < t.size(); ++i)
        max_gap = std::max(max_gap, t[i] - t[i - 1]);
    // Mean ON gap is 20 us; an OFF dwell averages 5000 us.
    EXPECT_GT(max_gap, sim::microseconds(1000.0));
}

TEST(Arrival, InlineTraceConvertsAndCutsAtHorizon)
{
    ArrivalSpec spec;
    spec.kind = ArrivalSpec::Kind::Trace;
    spec.traceUs = {0.0, 10.5, 10.5, 99.0, 250.0};
    sim::Rng rng(1);
    auto t = serve::makeTimeline(spec, rng, sim::microseconds(100.0));
    ASSERT_EQ(t.size(), 4u); // 250 us is past the horizon
    EXPECT_EQ(t[0], 0);
    EXPECT_EQ(t[1], sim::microseconds(10.5));
    EXPECT_EQ(t[2], t[1]); // simultaneous arrivals are legal
    EXPECT_EQ(t[3], sim::microseconds(99.0));

    // An offset beyond the SimTime range is past every horizon too.
    spec.traceUs = {5.0, 1e300};
    for (sim::SimTime horizon : {sim::microseconds(100.0), sim::maxTime}) {
        EXPECT_EQ(serve::makeTimeline(spec, rng, horizon),
                  std::vector<sim::SimTime>{sim::microseconds(5.0)});
    }
}

TEST(Arrival, TraceConsumesNoRandomness)
{
    ArrivalSpec spec;
    spec.kind = ArrivalSpec::Kind::Trace;
    spec.traceUs = {1.0, 2.0, 3.0};
    sim::Rng rng(123);
    auto before = rng.next();
    sim::Rng rng2(123);
    serve::makeTimeline(spec, rng2, sim::microseconds(10.0));
    EXPECT_EQ(rng2.next(), before);
}

TEST(Arrival, TraceFileRoundTripsBitIdentically)
{
    // Generate a stochastic timeline, write it as a trace file, read
    // it back: the doubles and the resulting timeline must round-trip
    // exactly (%.17g), the determinism story for replayed production
    // logs.
    ArrivalSpec poisson;
    poisson.kind = ArrivalSpec::Kind::Poisson;
    poisson.ratePerSec = 3333.0;
    auto original = timeline(poisson, 2024, 30e3);
    ASSERT_FALSE(original.empty());

    std::vector<double> us;
    us.reserve(original.size());
    for (sim::SimTime t : original)
        us.push_back(sim::toMicroseconds(t));

    const std::string path = scratchPath("roundtrip.txt");
    test::writeArrivalTrace(path, us);
    EXPECT_EQ(serve::readArrivalTrace(path), us);

    ArrivalSpec replay;
    replay.kind = ArrivalSpec::Kind::Trace;
    replay.traceFile = path;
    sim::Rng rng(0);
    auto replayed =
        serve::makeTimeline(replay, rng, sim::microseconds(30e3));
    EXPECT_EQ(replayed, original);
    std::remove(path.c_str());
}

TEST(Arrival, TraceFileSkipsCommentsAndBlanks)
{
    const std::string path = scratchPath("comments.txt");
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("# header\n\n1.5\n2.5 # trailing comment\n\n", f);
        std::fclose(f);
    }
    auto us = serve::readArrivalTrace(path);
    EXPECT_EQ(us, (std::vector<double>{1.5, 2.5}));
    std::remove(path.c_str());
}

TEST(Arrival, MalformedTracesAreFatal)
{
    auto write = [](const std::string &name, const char *content) {
        std::string path = scratchPath(name);
        std::FILE *f = std::fopen(path.c_str(), "w");
        EXPECT_NE(f, nullptr);
        std::fputs(content, f);
        std::fclose(f);
        return path;
    };

    std::string garbage = write("garbage.txt", "1.0\nbogus\n");
    EXPECT_THROW(serve::readArrivalTrace(garbage), sim::FatalError);
    std::remove(garbage.c_str());

    std::string trailing = write("trailing.txt", "1.0 2.0\n");
    EXPECT_THROW(serve::readArrivalTrace(trailing), sim::FatalError);
    std::remove(trailing.c_str());

    std::string negative = write("negative.txt", "-1.0\n");
    EXPECT_THROW(serve::readArrivalTrace(negative), sim::FatalError);
    std::remove(negative.c_str());

    std::string decreasing = write("decreasing.txt", "5.0\n4.0\n");
    EXPECT_THROW(serve::readArrivalTrace(decreasing), sim::FatalError);
    std::remove(decreasing.c_str());

    // An offset that overflows a double fails the numeric read; it
    // must not pass for a blank line and silently drop an arrival.
    for (const char *huge : {"1e999", "-1e999"}) {
        std::string overflow = write(
            "overflow.txt", (std::string("100\n") + huge + "\n200\n").c_str());
        try {
            serve::readArrivalTrace(overflow);
            ADD_FAILURE() << huge << " was accepted";
        } catch (const sim::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(overflow + ":2:"),
                      std::string::npos)
                << e.what();
        }
        std::remove(overflow.c_str());
    }

    EXPECT_THROW(serve::readArrivalTrace("no_such_trace_file.txt"),
                 sim::FatalError);

    ArrivalSpec inline_bad;
    inline_bad.kind = ArrivalSpec::Kind::Trace;
    inline_bad.traceUs = {3.0, 1.0};
    sim::Rng rng(1);
    EXPECT_THROW(
        serve::makeTimeline(inline_bad, rng, sim::microseconds(10.0)),
        sim::FatalError);
}

TEST(ArrivalFuzz, MutatedTraceFilesFailCleanlyOrParse)
{
    // Seeded byte flips, inserts and deletes of a valid trace file.
    // The reader must either refuse the file with a FatalError or
    // return offsets that are finite, non-negative and nondecreasing,
    // one for every line that holds something besides a comment.
    const std::string valid = "# offsets, us\n0\n1.5\n2.5 # note\n\n"
                              "10\n1e3\n1234.5678\n1e300\n";
    const std::string alphabet = "0123456789.eE+-# \t\nx";
    const std::string path = scratchPath("fuzz.txt");
    sim::Rng rng(20140614);
    int accepted = 0, refused = 0;
    for (int i = 0; i < 3000; ++i) {
        std::string m = valid;
        for (int edits = 1 + static_cast<int>(rng.uniformInt(
                 std::uint64_t{3}));
             edits > 0 && !m.empty(); --edits) {
            std::size_t at = rng.uniformInt(std::uint64_t{m.size()});
            char c = rng.uniformInt(std::uint64_t{4}) == 0
                ? static_cast<char>(1 + rng.uniformInt(std::uint64_t{255}))
                : alphabet[rng.uniformInt(std::uint64_t{alphabet.size()})];
            switch (rng.uniformInt(std::uint64_t{3})) {
              case 0: m[at] = c; break;
              case 1: m.insert(at, 1, c); break;
              default: m.erase(at, 1);
            }
        }
        {
            std::ofstream os(path, std::ios::binary | std::ios::trunc);
            os << m;
        }
        std::vector<double> us;
        try {
            us = serve::readArrivalTrace(path);
        } catch (const sim::FatalError &) {
            ++refused;
            continue;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "readArrivalTrace threw '" << e.what()
                          << "' on:\n"
                          << m;
            continue;
        }
        ++accepted;
        std::size_t content_lines = 0;
        std::istringstream lines(m);
        for (std::string line; std::getline(lines, line);) {
            line.erase(std::min(line.find('#'), line.size()));
            content_lines += std::any_of(line.begin(), line.end(),
                                         [](unsigned char ch) {
                                             return !std::isspace(ch);
                                         });
        }
        EXPECT_EQ(us.size(), content_lines) << m;
        for (std::size_t j = 0; j < us.size(); ++j) {
            EXPECT_TRUE(std::isfinite(us[j]) && us[j] >= 0.0) << m;
            EXPECT_GE(us[j], j > 0 ? us[j - 1] : 0.0) << m;
        }
    }
    std::remove(path.c_str());
    EXPECT_GT(accepted, 300);
    EXPECT_GT(refused, 300);
}

TEST(Arrival, SpecValidationRejectsBadParameters)
{
    sim::Rng rng(1);
    const sim::SimTime horizon = sim::microseconds(10.0);

    ArrivalSpec zero_rate;
    zero_rate.ratePerSec = 0.0;
    EXPECT_THROW(serve::makeTimeline(zero_rate, rng, horizon),
                 sim::FatalError);

    ArrivalSpec bad_burst;
    bad_burst.kind = ArrivalSpec::Kind::Bursty;
    bad_burst.burstMeanUs = 0.0;
    EXPECT_THROW(serve::makeTimeline(bad_burst, rng, horizon),
                 sim::FatalError);

    ArrivalSpec empty_trace;
    empty_trace.kind = ArrivalSpec::Kind::Trace;
    EXPECT_THROW(serve::makeTimeline(empty_trace, rng, horizon),
                 sim::FatalError);

    ArrivalSpec ok;
    EXPECT_THROW(serve::makeTimeline(ok, rng, 0), sim::FatalError);
}
