/**
 * Unit tests for serve/arrival.hh: timeline determinism (regeneration
 * and a sequential-draw reference), monotonicity and bounds, and
 * inline traces: conversion, exact replay of a generated timeline,
 * and rejection of malformed offsets.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "serve/arrival.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

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

TEST(Arrival, GeneratedTimelineReplaysExactlyAsInlineTrace)
{
    // A stochastic timeline converted to microsecond offsets and
    // replayed as an inline trace must reproduce every arrival time:
    // the determinism story for replayed arrival logs.
    ArrivalSpec poisson;
    poisson.kind = ArrivalSpec::Kind::Poisson;
    poisson.ratePerSec = 3333.0;
    auto original = timeline(poisson, 2024, 30e3);
    ASSERT_FALSE(original.empty());

    ArrivalSpec replay;
    replay.kind = ArrivalSpec::Kind::Trace;
    for (sim::SimTime t : original)
        replay.traceUs.push_back(sim::toMicroseconds(t));
    sim::Rng rng(0);
    EXPECT_EQ(serve::makeTimeline(replay, rng, sim::microseconds(30e3)),
              original);
}

TEST(Arrival, MalformedTracesAreFatal)
{
    sim::Rng rng(1);
    for (const std::vector<double> &bad :
         {std::vector<double>{}, {3.0, 1.0}, {-1.0},
          {1.0, std::numeric_limits<double>::quiet_NaN()},
          {1.0, std::numeric_limits<double>::infinity()}}) {
        ArrivalSpec spec;
        spec.kind = ArrivalSpec::Kind::Trace;
        spec.traceUs = bad;
        EXPECT_THROW(
            serve::makeTimeline(spec, rng, sim::microseconds(10.0)),
            sim::FatalError)
            << bad.size() << " offsets";
    }
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

    ArrivalSpec ok;
    EXPECT_THROW(serve::makeTimeline(ok, rng, 0), sim::FatalError);
}
