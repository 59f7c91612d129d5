/**
 * @file
 * The batch executor behind harness::Runner (DESIGN.md §10).
 *
 * runBatch() runs a RunRequest batch.  At one job the coordinator
 * runs every request itself, in order, in this process.  At N jobs it
 * partitions the batch across N forked worker processes: it keeps one
 * request in flight per worker, ships work assignments and
 * wire-encoded RunResults over pipes, and merges results *by request
 * position*, so the returned vector — and therefore every table and
 * JSONL line derived from it — is byte-identical to an in-process
 * `--jobs=1` run for any worker count.
 *
 * Robustness is the point of the subsystem:
 *  - a worker that exits, is killed, or trips the per-request
 *    watchdog has its in-flight request requeued to the surviving
 *    workers, with bounded retries per request;
 *  - dead worker slots are respawned after an exponential backoff; a
 *    slot that keeps dying is abandoned, and when every slot is gone
 *    the remaining requests degrade to in-process execution in the
 *    coordinator — the sweep still completes;
 *  - with ExecOptions::cacheDir set, every completed result is
 *    persisted (atomic write-then-rename) under its request
 *    fingerprint, so rerunning an interrupted sweep resumes from
 *    where it stopped;
 *  - a sim::FatalError raised *by a request* is not retried (it is
 *    deterministic): the batch aborts with that error, whichever
 *    process ran the request.
 */

#ifndef GPUMP_HARNESS_EXEC_COORDINATOR_HH
#define GPUMP_HARNESS_EXEC_COORDINATOR_HH

#include <cstddef>
#include <vector>

#include "harness/exec/options.hh"
#include "harness/runner.hh"

namespace gpump {
namespace harness {
namespace exec {

/** What a runBatch campaign did (telemetry for logs and tests). */
struct ExecStats
{
    std::size_t total = 0;       ///< Requests in the batch.
    std::size_t cacheHits = 0;   ///< Served from the result cache.
    std::size_t computed = 0;    ///< Executed by worker processes.
    std::size_t inProcess = 0;   ///< Run by the coordinator itself.
    std::size_t requeues = 0;    ///< In-flight requests requeued.
    std::size_t timeouts = 0;    ///< Workers killed by the watchdog.
    std::size_t respawns = 0;    ///< Replacement workers forked.
    std::size_t staleEntries = 0; ///< Cache files matching no request.
};

/**
 * Execute @p requests for @p runner and return results in request
 * order: in this process at one job (ExecOptions::workers == 0 and
 * Runner::jobs() == 1), otherwise across forked workers.  @p runner
 * supplies the base config, the per-request execution
 * (Runner::runOne) and the progress callback.  Raises
 * InterruptedError after a SIGINT/SIGTERM wind-down, checked between
 * requests, and rethrows the first request failure.
 *
 * @param stats out-parameter for campaign telemetry; may be null.
 */
std::vector<RunResult> runBatch(Runner &runner,
                                const std::vector<RunRequest> &requests,
                                const ExecOptions &options,
                                ExecStats *stats = nullptr);

} // namespace exec
} // namespace harness
} // namespace gpump

#endif // GPUMP_HARNESS_EXEC_COORDINATOR_HH
