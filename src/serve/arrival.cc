#include "serve/arrival.hh"

#include <cmath>

#include "sim/logging.hh"

namespace gpump {
namespace serve {

namespace {

std::vector<sim::SimTime>
poissonTimeline(double rate_per_sec, sim::Rng &rng, sim::SimTime horizon,
                std::size_t max_requests)
{
    const double mean_gap_us = 1e6 / rate_per_sec;
    const double horizon_us = sim::toMicroseconds(horizon);
    std::vector<sim::SimTime> out;
    double t_us = 0.0;
    for (;;) {
        t_us += rng.exponential(mean_gap_us);
        if (t_us >= horizon_us || out.size() >= max_requests)
            return out;
        out.push_back(sim::microseconds(t_us));
    }
}

std::vector<sim::SimTime>
burstyTimeline(const ArrivalSpec &spec, sim::Rng &rng,
               sim::SimTime horizon, std::size_t max_requests)
{
    // On-off MMPP: the process alternates exponentially-dwelling ON
    // periods (Poisson arrivals at ratePerSec) and silent OFF
    // periods, starting ON at t=0.  Draw order per cycle is fixed —
    // ON length, then the gap draws inside it (one past the period
    // end), then the OFF length — so the timeline is a pure function
    // of the RNG state.
    const double mean_gap_us = 1e6 / spec.ratePerSec;
    const double horizon_us = sim::toMicroseconds(horizon);
    std::vector<sim::SimTime> out;
    double t_us = 0.0;
    while (t_us < horizon_us && out.size() < max_requests) {
        const double on_end_us =
            t_us + rng.exponential(spec.burstMeanUs);
        double arr_us = t_us;
        for (;;) {
            arr_us += rng.exponential(mean_gap_us);
            if (arr_us >= on_end_us || arr_us >= horizon_us ||
                out.size() >= max_requests)
                break;
            out.push_back(sim::microseconds(arr_us));
        }
        t_us = on_end_us + rng.exponential(spec.idleMeanUs);
    }
    return out;
}

std::vector<sim::SimTime>
traceTimeline(const ArrivalSpec &spec, sim::SimTime horizon,
              std::size_t max_requests)
{
    std::vector<sim::SimTime> out;
    out.reserve(spec.traceUs.size());
    double prev = 0.0;
    for (double u : spec.traceUs) {
        if (!std::isfinite(u) || u < 0.0)
            sim::fatal("arrival trace: bad offset %f us", u);
        if (u < prev)
            sim::fatal("arrival trace: offsets must be nondecreasing "
                       "(%f after %f)",
                       u, prev);
        prev = u;
        // Past the SimTime range, so past any horizon; converting it
        // would overflow.
        if (u * 1e3 >= static_cast<double>(sim::maxTime))
            break;
        sim::SimTime t = sim::microseconds(u);
        if (t >= horizon || out.size() >= max_requests)
            break;
        out.push_back(t);
    }
    return out;
}

} // namespace

void
ArrivalSpec::validate() const
{
    switch (kind) {
      case Kind::Poisson:
        if (!(ratePerSec > 0.0) || !std::isfinite(ratePerSec))
            sim::fatal("Poisson arrivals need ratePerSec > 0, got %f",
                       ratePerSec);
        break;
      case Kind::Bursty:
        if (!(ratePerSec > 0.0) || !std::isfinite(ratePerSec))
            sim::fatal("bursty arrivals need ratePerSec > 0, got %f",
                       ratePerSec);
        if (!(burstMeanUs > 0.0) || !(idleMeanUs > 0.0))
            sim::fatal("bursty arrivals need positive burst/idle "
                       "means, got %f/%f",
                       burstMeanUs, idleMeanUs);
        break;
      case Kind::Trace:
        if (traceUs.empty())
            sim::fatal("trace arrivals need traceUs");
        break;
    }
}

std::vector<sim::SimTime>
makeTimeline(const ArrivalSpec &spec, sim::Rng &rng, sim::SimTime horizon,
             std::size_t max_requests)
{
    spec.validate();
    if (horizon <= 0)
        sim::fatal("arrival timeline needs a positive horizon");
    switch (spec.kind) {
      case ArrivalSpec::Kind::Poisson:
        return poissonTimeline(spec.ratePerSec, rng, horizon,
                               max_requests);
      case ArrivalSpec::Kind::Bursty:
        return burstyTimeline(spec, rng, horizon, max_requests);
      case ArrivalSpec::Kind::Trace:
        return traceTimeline(spec, horizon, max_requests);
    }
    sim::fatal("unreachable arrival kind");
}

} // namespace serve
} // namespace gpump
