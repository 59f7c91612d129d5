/**
 * @file
 * Suite: declarative experiment grids.
 *
 * A Suite describes a whole figure/table campaign as data — workload
 * sizes, a plan generator (prioritized or uniform, as in Section 4.1)
 * and a list of named schemes, optionally with per-scheme config
 * overrides (for ablations) — and expands it into an ordered batch of
 * RunRequests for the Runner.  The expansion order is size-major,
 * then plan, then scheme, and Batch::indexOf maps a grid coordinate
 * back to its position so benches can aggregate results without
 * hand-rolled run loops.
 */

#ifndef GPUMP_HARNESS_SUITE_HH
#define GPUMP_HARNESS_SUITE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/runner.hh"

namespace gpump {
namespace harness {

/** One named scheme column of a suite. */
struct SchemeSpec
{
    /** Column name for reports and request tags. */
    std::string name;
    Scheme scheme;
    /** Per-scheme config overrides (ablation knobs). */
    sim::Config overrides;
    /** Run each plan with prioritization stripped (the nonprioritized
     *  baseline of Figure 5). */
    bool dropPriorities = false;
};

/** A built suite: the request list plus its grid layout. */
struct Batch
{
    std::string name;
    /** Workload sizes (process counts), one plan list each. */
    std::vector<int> sizes;
    std::vector<std::vector<workload::WorkloadPlan>> plansBySize;
    std::vector<SchemeSpec> schemes;
    /** All requests, ordered size-major, then plan, then scheme. */
    std::vector<RunRequest> requests;

    /** Number of plans generated for sizes[sizeIdx]. */
    std::size_t numPlans(std::size_t sizeIdx) const
    {
        return plansBySize[sizeIdx].size();
    }

    /** Request position of grid cell (size, plan, scheme). */
    std::size_t indexOf(std::size_t sizeIdx, std::size_t planIdx,
                        std::size_t schemeIdx) const;

  private:
    friend class Suite;
    /** Cumulative request offset of each size bucket. */
    std::vector<std::size_t> sizeOffsets_;
};

/** Builder for experiment grids. */
class Suite
{
  public:
    /** @param name suite name, used in request tags and reports. */
    explicit Suite(std::string name);

    /** Workload sizes (process counts) of the grid. */
    Suite &sizes(std::vector<int> s);

    /**
     * Prioritized plans per size (Figures 5/6): per_bench workloads
     * per benchmark in which that benchmark is the high-priority
     * process; each size uses seed base_seed + size, matching the
     * figure benches' convention.
     */
    Suite &prioritized(int per_bench, std::uint64_t base_seed);

    /** Uniform plans per size (Figures 7/8): count random workloads
     *  of equal-priority processes, seeded base_seed + size. */
    Suite &uniform(int count, std::uint64_t base_seed);

    /** A fixed, caller-built plan list (single size bucket). */
    Suite &fixedPlans(std::vector<workload::WorkloadPlan> plans);

    /**
     * Cloud-serving scenarios (single size bucket, one "plan" per
     * scenario): every request carries its scenario, the Runner
     * builds the simulation from it (open-loop arrivals, admission
     * control), and results gain per-class SLO metrics next to
     * ANTT/STP.  Each scenario's plan lists the tenant benchmarks
     * (for the isolated baselines) under the scenario seed.
     * Scenarios are validated here, before any simulation runs.
     */
    Suite &serving(std::vector<serve::ScenarioSpec> scenarios);

    /** Append a scheme column. */
    Suite &scheme(std::string name, Scheme s);

    /** Append a scheme column with config overrides (ablations). */
    Suite &scheme(std::string name, Scheme s, sim::Config overrides);

    /** Append a scheme column run with prioritization stripped. */
    Suite &schemeNonprioritized(std::string name, Scheme s);

    /** Replays every process must complete (default 3). */
    Suite &minReplays(int n);

    /** Safety horizon for every run (default: unlimited). */
    Suite &limit(sim::SimTime t);

    /**
     * Expand the grid into an ordered request batch.
     *
     * Fails fast (before any simulation runs) when a scheme names an
     * unregistered policy/mechanism — the error lists every
     * registered entry — or when two columns collide on name or on
     * the full scheme identity (label + overrides + prioritization),
     * which would make report columns indistinguishable.
     */
    Batch build() const;

  private:
    std::string name_;
    std::vector<int> sizes_{0};
    std::function<std::vector<workload::WorkloadPlan>(int)> plansFor_;
    /** Scenario behind each plan of the single serving bucket; empty
     *  for plain (closed-loop) suites. */
    std::vector<std::shared_ptr<const serve::ScenarioSpec>> serving_;
    std::vector<SchemeSpec> schemes_;
    int minReplays_ = 3;
    sim::SimTime limit_ = sim::maxTime;
};

/**
 * Structured result emission: one JSON object per run appended to
 * @p path (conventionally under results/), with the request identity,
 * the grid coordinate and the full metric set.  Parent directories
 * are created.  Returns the path written.
 */
std::string writeResultsJsonl(const std::string &path, const Batch &batch,
                              const std::vector<RunResult> &results);

} // namespace harness
} // namespace gpump

#endif // GPUMP_HARNESS_SUITE_HH
