/**
 * @file
 * Arrival processes for open-loop serving scenarios (DESIGN.md §9).
 *
 * Production GPU sharing is open-loop: requests arrive continuously
 * whether or not the device keeps up.  This module turns an
 * ArrivalSpec into a deterministic request timeline — the absolute
 * simulated times at which a tenant's requests are released.  Three
 * processes cover the serving literature's standard shapes:
 *
 *  - Poisson: memoryless arrivals at a fixed mean rate, the classic
 *    open-system assumption;
 *  - Bursty (on-off MMPP): exponentially-dwelling ON periods emitting
 *    Poisson arrivals separated by silent OFF periods — the
 *    diurnal-burst pattern that makes tail latency interesting;
 *  - Trace: an explicit timeline (inline or from a file), for
 *    replaying measured production arrival logs.
 *
 * Determinism contract: a timeline is a pure function of (spec, RNG
 * seed, horizon, cap).  Stochastic kinds draw one sim::Rng sample per
 * gap or dwell in a fixed order, so regenerating from the same seed
 * reproduces the timeline bit for bit — the same contract
 * workload::Generator's plans rely on.
 */

#ifndef GPUMP_SERVE_ARRIVAL_HH
#define GPUMP_SERVE_ARRIVAL_HH

#include <cstddef>
#include <string>
#include <vector>

#include "sim/random.hh"
#include "sim/types.hh"

namespace gpump {
namespace serve {

/** How one tenant's requests arrive. */
struct ArrivalSpec
{
    enum class Kind
    {
        Poisson, ///< exponential inter-arrival gaps at ratePerSec
        Bursty,  ///< on-off process: Poisson bursts, silent gaps
        Trace,   ///< explicit timeline (traceUs or traceFile)
    };

    Kind kind = Kind::Poisson;

    /** Mean arrival rate (requests/second).  Poisson: the overall
     *  rate; Bursty: the rate *inside* ON periods. */
    double ratePerSec = 1000.0;

    /** Bursty only: mean ON-period (burst) length, microseconds. */
    double burstMeanUs = 1000.0;
    /** Bursty only: mean OFF-period (silence) length, microseconds. */
    double idleMeanUs = 1000.0;

    /** Trace only: arrival offsets in microseconds, nondecreasing.
     *  Takes precedence over traceFile when non-empty. */
    std::vector<double> traceUs;
    /** Trace only: file of arrival offsets (one decimal number of
     *  microseconds per line; '#' comments and blank lines skipped). */
    std::string traceFile;

    /** Raises fatal() on out-of-range parameters. */
    void validate() const;
};

/**
 * Generate the deterministic request timeline of @p spec: absolute
 * arrival times in [0, horizon), nondecreasing, at most @p
 * max_requests entries (a cap, not a target — the horizon is the
 * usual bound).  Stochastic kinds consume draws from @p rng; the
 * Trace kind consumes none.
 */
std::vector<sim::SimTime> makeTimeline(const ArrivalSpec &spec,
                                       sim::Rng &rng,
                                       sim::SimTime horizon,
                                       std::size_t max_requests = 1u
                                           << 20);

/**
 * Read an arrival-trace file: one arrival offset (microseconds) per
 * line, nondecreasing and non-negative; '#' comments and blank lines
 * are skipped.  Raises fatal() on unreadable files or malformed
 * content.
 */
std::vector<double> readArrivalTrace(const std::string &path);

} // namespace serve
} // namespace gpump

#endif // GPUMP_SERVE_ARRIVAL_HH
