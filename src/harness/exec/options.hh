/**
 * @file
 * Knobs of the multi-process batch executor (harness/exec).
 *
 * Kept dependency-free so harness::Runner can embed an ExecOptions
 * without pulling the coordinator (which includes runner.hh) into its
 * own header.  The retry and respawn budgets are not knobs: they are
 * constants in coordinator.cc (kMaxRetries, kBackoffBaseSec,
 * kMaxRespawns).
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
    /** Forked worker processes; 0 = Runner::jobs() workers when
     *  jobs() > 1 and none at one job, where the coordinator runs
     *  every request itself.  Runner::run leaves it 0; only direct
     *  runBatch callers set it. */
    int workers = 0;

    /** On-disk result cache directory; empty = no cache.  Keyed by
     *  request fingerprint, so an interrupted sweep rerun against the
     *  same directory resumes from where it stopped. */
    std::string cacheDir;

    /**
     * Per-request watchdog, seconds: a forked worker whose in-flight
     * request exceeds this is SIGKILLed and the request is requeued
     * (counting one retry).  0 disables the watchdog.  Requests the
     * coordinator runs itself have none.
     */
    double requestTimeoutSec = 0.0;

    /** Fail the sweep when the cache directory holds entries whose
     *  keys match no request of this batch (stale fingerprints).
     *  Scripts/CI set this via GPUMP_EXEC_CACHE_STRICT=1, which takes
     *  the spellings of sim::Config::getBool. */
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
     *  environment hooks (CI fault injection).  A value that does not
     *  parse raises sim::FatalError naming the variable. */
    void applyTestEnv();
};

} // namespace exec
} // namespace harness
} // namespace gpump

#endif // GPUMP_HARNESS_EXEC_OPTIONS_HH
