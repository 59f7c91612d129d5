/**
 * @file
 * Knobs of the multi-process batch executor (harness/exec).
 *
 * Kept dependency-free so harness::Runner can embed an ExecOptions
 * without pulling the coordinator (which includes runner.hh) into its
 * own header.
 */

#ifndef GPUMP_HARNESS_EXEC_OPTIONS_HH
#define GPUMP_HARNESS_EXEC_OPTIONS_HH

#include <cstdint>
#include <string>

namespace gpump {
namespace harness {
namespace exec {

/** Configuration of one exec::runBatch campaign. */
struct ExecOptions
{
    /** Forked worker processes; 0 = max(1, Runner::jobs()).
     *  Runner::run leaves it 0; only direct runBatch callers set it. */
    int workers = 0;

    /** On-disk result cache directory; empty = no cache.  Keyed by
     *  request fingerprint, so an interrupted sweep rerun against the
     *  same directory resumes from where it stopped. */
    std::string cacheDir;

    /**
     * Per-request watchdog, seconds: a worker whose in-flight request
     * exceeds this is SIGKILLed and the request is requeued (counting
     * one retry).  0 disables the watchdog.
     */
    double requestTimeoutSec = 0.0;

    /** Requeue attempts per request after worker deaths/timeouts
     *  before the coordinator falls back to executing it in-process.
     *  (A request that *fails* — sim::FatalError — is never retried:
     *  the failure is deterministic and aborts the batch, as it does
     *  in process.) */
    int maxRetries = 2;

    /** Consecutive deaths of one worker slot (without an intervening
     *  completed result) before that slot is abandoned.  When every
     *  slot is abandoned the remaining requests run in-process. */
    int maxRespawns = 3;

    /** Base of the exponential respawn backoff: a slot's k-th
     *  consecutive respawn waits backoffBaseSec * 2^(k-1) seconds. */
    double backoffBaseSec = 0.25;

    /** Fail the sweep when the cache directory holds entries whose
     *  keys match no request of this batch (stale fingerprints).
     *  Scripts/CI set this via GPUMP_EXEC_CACHE_STRICT=1. */
    bool strictCache = false;

    /** @name Fault-injection test hooks
     * Exercised by tests/test_exec.cpp and the CI bench-smoke job;
     * settable from the environment via applyTestEnv().  @{ */
    /** SIGKILL one live worker right after the n-th computed result
     *  arrives (1-based); < 0 = off.  (GPUMP_EXEC_TEST_KILL_AFTER) */
    int testKillAfterResults = -1;
    /** Workers hang (pause forever) instead of executing this request
     *  index; < 0 = off.  The coordinator's watchdog + in-process
     *  fallback must finish the sweep regardless. */
    std::int64_t testHangOnIndex = -1;
    /** Coordinator _exit(3)s right after the n-th result is written
     *  to the cache (1-based); < 0 = off.  Simulates a sweep killed
     *  mid-run for resume tests.  (GPUMP_EXEC_TEST_ABORT_AFTER) */
    int testAbortAfterResults = -1;
    /** @} */

    /** Overlay the GPUMP_EXEC_TEST_KILL_AFTER /
     *  GPUMP_EXEC_TEST_ABORT_AFTER / GPUMP_EXEC_CACHE_STRICT
     *  environment hooks (CI fault injection). */
    void applyTestEnv();
};

} // namespace exec
} // namespace harness
} // namespace gpump

#endif // GPUMP_HARNESS_EXEC_OPTIONS_HH
