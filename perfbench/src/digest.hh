/**
 * @file
 * Simulated-outcome digests: the benchmark's correctness gate.
 *
 * A digest covers every simulated outcome of a run — metrics,
 * isolated baselines, run records, end time, kernel/preemption/save
 * counts and the serving vectors — with every double spelled in
 * hexfloat, so any change to what the model computes changes it.  It
 * leaves out the host-side quantities (wall time) and the event count,
 * so a change that makes the simulator cheaper while keeping its
 * outcomes passes.
 */

#ifndef PERFBENCH_DIGEST_HH
#define PERFBENCH_DIGEST_HH

#include <cstddef>
#include <string>
#include <vector>

#include "harness/runner.hh"

namespace perfbench {

/** Canonical text of @p r's simulated outcomes (one field per line). */
std::string canonicalOutcome(const gpump::harness::RunResult &r);

/** FNV-1a 64 digest of canonicalOutcome(), as 16 hex digits. */
std::string outcomeDigest(const gpump::harness::RunResult &r);

/** Digest of an ordered digest list (a whole batch). */
std::string combineDigests(const std::vector<std::string> &digests);

/**
 * Failed requests of one batch execution.  A request fails when it
 * produced no result (an exception aborted it or the batch; marked by
 * an empty digest) or when its digest differs from the reference.
 * Every exec requeue also counts as one failure: the request's worker
 * died or overran the watchdog.  The total is capped at the batch
 * size, since one request may fail in several ways.
 *
 * @param digests   one per request, empty when the request produced
 *                  no result.
 * @param reference expected digests in request order; empty = no
 *                  reference (only missing results count).
 * @param requeues  exec requeues of the batch (0 in-process).
 */
std::size_t countFailures(const std::vector<std::string> &digests,
                          const std::vector<std::string> &reference,
                          std::size_t requeues);

} // namespace perfbench

#endif // PERFBENCH_DIGEST_HH
