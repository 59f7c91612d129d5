/**
 * @file
 * In-process replay of a batch with per-layer spans and counts.
 *
 * replayRequest() builds the SystemSpec and runs the request the way
 * harness::Runner::execute does, but calls each layer itself so spans
 * can go around the calls, and reads the layers' counters from the
 * live System after the run.  The result then takes the exec layer's
 * path: wire encode, decode, result-cache store and lookup.  Its
 * digest must equal the Runner's for the same request, which proves
 * the replay faithful.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "harness/exec/cache.hh"
#include "harness/runner.hh"
#include "tracer.hh"

namespace perfbench {

/** One registered stat summed over runs. */
struct StatSum
{
    /** Scalar: sum of final values; Distribution: sum of samples. */
    double sum = 0.0;
    /** Scalar: runs; Distribution: samples. */
    std::uint64_t count = 0;
    /** Largest final value (Scalar) or sample (Distribution). */
    double max = 0.0;
};

/** Per-layer counts of a replayed batch. */
struct LayerCounts
{
    /** Every stat the components registered, by dotted name. */
    std::map<std::string, StatSum> stats;

    std::uint64_t requests = 0;
    std::uint64_t events = 0;
    std::uint64_t tbs = 0;
    std::uint64_t kernels = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t ctxTransfers = 0;
    std::uint64_t swapIns = 0;
    double swapBytes = 0.0;
    std::size_t queueSlotsMax = 0;
    /** Host seconds inside System::run. */
    double runSeconds = 0.0;
    /** TBs of runs whose scheme observes completions. */
    std::uint64_t observedTbs = 0;
    /** TBs of completed executions (the sim_tbs_per_s numerator). */
    std::int64_t countedTbs = 0;
    /** Resident memory the System with the most events held after
     *  its run, and that run's events. */
    double largestRunHeldBytes = 0.0;
    std::uint64_t largestRunEvents = 0;
    /** Wire-encoded result bytes. */
    double resultBytes = 0.0;
    /** Serving arrivals offered and dropped. */
    std::int64_t offered = 0;
    std::int64_t dropped = 0;
    /** Per scheme label: (System::run seconds, TBs). */
    std::map<std::string, std::pair<double, std::uint64_t>> byScheme;
};

/**
 * Replay @p request (its batch position is @p id) in-process.
 *
 * @param offered serving arrivals the request offers (0 closed-loop).
 * @return the result after the cache round trip, or nothing when the
 *         lookup missed (counted as a failed request).
 */
std::optional<gpump::harness::RunResult>
replayRequest(gpump::harness::Runner &runner,
              const gpump::harness::RunRequest &request, std::int64_t id,
              std::int64_t offered, Tracer &tracer,
              gpump::harness::exec::ResultCache &cache,
              LayerCounts &counts);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
