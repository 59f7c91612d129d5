/**
 * @file
 * Multi-tenant cloud-serving scenarios (DESIGN.md §9).
 *
 * A scenario models one GPU shared by many *request streams*: each
 * tenant holds a GPU context, a kernel-DAG template (a benchmark
 * trace), a priority/deadline class and an arrival process.  Every
 * request is one open-loop execution of the tenant's template,
 * released at its arrival time, queued FIFO behind the tenant's
 * in-flight request, and optionally dropped by admission control
 * under overload — workload::Process's arrival-schedule mode.
 *
 * The mapping onto workload::System is deliberately thin: a scenario
 * compiles to a SystemSpec whose arrival schedules were generated up
 * front (deterministically, from the scenario seed alone — the same
 * timelines under every scheme, so scheme comparisons see identical
 * offered load), and the run ends when every stream has been served.
 */

#ifndef GPUMP_SERVE_SCENARIO_HH
#define GPUMP_SERVE_SCENARIO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serve/arrival.hh"
#include "workload/system.hh"

namespace gpump {
namespace serve {

/** One tenant: a request stream with a class and a template. */
struct TenantSpec
{
    /** Tenant label; defaults to the benchmark name when empty. */
    std::string name;
    /** Kernel-DAG template: a trace::parboilSuite benchmark name. */
    std::string benchmark;
    /** Priority/deadline class the metrics aggregate by (e.g.
     *  "latency", "batch"). */
    std::string className = "default";
    /** Scheduler priority (higher wins under priority policies). */
    int priority = 0;
    /** Per-request deadline relative to arrival, microseconds;
     *  <= 0 = no deadline (misses only from admission drops). */
    double deadlineUs = 0.0;
    /** How this tenant's requests arrive. */
    ArrivalSpec arrivals;
    /** Admission bound: an arrival finding this many requests queued
     *  is dropped; 0 = unbounded backlog. */
    int maxBacklog = 0;
};

/** One multi-tenant serving scenario. */
struct ScenarioSpec
{
    std::string name = "serve";
    std::vector<TenantSpec> tenants;
    /** Arrival-generation window: requests arrive in [0, horizonUs).
     *  The simulation itself runs until the last admitted request
     *  completes. */
    double horizonUs = 100e3;
    /** Per-tenant request cap (a safety bound on timeline length). */
    std::size_t maxRequestsPerTenant = 1u << 20;
    /** Fairness window width (sliding-window fairness, serve/slo.hh);
     *  0 = horizonUs / 10. */
    double windowUs = 0.0;
    /** Seed for the arrival timelines AND the simulation run. */
    std::uint64_t seed = 1;

    /** Raises fatal() on an empty or inconsistent scenario. */
    void validate() const;

    /** Canonical one-line rendering of the full scenario identity
     *  (tenants, arrival processes, horizon, seed; no newlines).
     *  Equal scenarios have equal fingerprints — the serving arm of
     *  the multi-process executor's work-unit key (harness/exec).
     *  A trace file is read and keyed on its offsets. */
    std::string fingerprint() const;
};

/**
 * Generate every tenant's request timeline, deterministically.
 *
 * A root RNG is seeded from spec.seed and forked once per tenant in
 * declaration order, so a tenant's timeline depends only on (seed,
 * tenant index, its ArrivalSpec) — adding a scheme or reordering a
 * sweep never perturbs the offered load.
 */
std::vector<std::vector<sim::SimTime>>
makeTimelines(const ScenarioSpec &spec);

/**
 * Compile the scenario into a runnable workload::SystemSpec under the
 * given scheme: tenant benchmarks/priorities, the generated arrival
 * schedules and admission bounds, and the scenario seed.
 */
workload::SystemSpec toSystemSpec(const ScenarioSpec &spec,
                                  const std::string &policy,
                                  const std::string &mechanism,
                                  const std::string &transferPolicy);

} // namespace serve
} // namespace gpump

#endif // GPUMP_SERVE_SCENARIO_HH
