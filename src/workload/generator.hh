/**
 * @file
 * Multiprogrammed workload generation (Section 4.1).
 *
 * Workloads co-schedule randomly chosen benchmark applications.  Two
 * flavours match the paper's experiments:
 *  - prioritized plans (Figures 5/6): one process is designated
 *    high-priority, and across the plan set every benchmark appears
 *    the same number of times as the high-priority process;
 *  - uniform plans (Figures 7/8): all processes equal, random mixes.
 */

#ifndef GPUMP_WORKLOAD_GENERATOR_HH
#define GPUMP_WORKLOAD_GENERATOR_HH

#include <cstdint>
#include <string>
#include <vector>

namespace gpump {
namespace workload {

/** One workload to simulate (benchmarks + optional prioritized one). */
struct WorkloadPlan
{
    /** Benchmark names; index 0 is the high-priority process in
     *  prioritized plans. */
    std::vector<std::string> benchmarks;
    /** Index of the high-priority process; -1 when none. */
    int highPriorityIndex = -1;
    /** Seed for this workload's simulation runs. */
    std::uint64_t seed = 1;

    /** Priorities vector for SystemSpec: 1 for the high-priority
     *  process, 0 for the rest (empty when no prioritization). */
    std::vector<int> priorities() const;

    /** Canonical one-line rendering of the full plan identity (no
     *  newlines).  Equal plans have equal fingerprints; combined with
     *  the config fingerprint it keys work units of the multi-process
     *  executor's result cache (harness/exec). */
    std::string fingerprint() const;
};

/**
 * Prioritized plans: for every benchmark of the suite, @p per_bench
 * workloads of @p nprocs processes in which that benchmark is the
 * high-priority process and the others are drawn randomly (without
 * replacement) from the rest of the suite.
 *
 * @pre 2 <= nprocs <= suite size and per_bench >= 0 (else fatal).
 */
std::vector<WorkloadPlan>
makePrioritizedPlans(int nprocs, int per_bench, std::uint64_t base_seed);

/**
 * Uniform plans: @p count random workloads of @p nprocs distinct
 * benchmarks each, all with equal priority.
 *
 * @pre 1 <= nprocs <= suite size and count >= 0 (else fatal).
 */
std::vector<WorkloadPlan>
makeUniformPlans(int nprocs, int count, std::uint64_t base_seed);

} // namespace workload
} // namespace gpump

#endif // GPUMP_WORKLOAD_GENERATOR_HH
