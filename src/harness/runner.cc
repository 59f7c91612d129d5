#include "harness/runner.hh"

#include <chrono>
#include <utility>

#include "core/policy.hh"
#include "harness/exec/coordinator.hh"
#include "sim/logging.hh"

namespace gpump {
namespace harness {

std::string
Scheme::label() const
{
    // Registry-driven: policies that never preempt (fcfs, npq, ...)
    // collapse the mechanism component, so distinct registered schemes
    // can never share a label.  Unregistered names pass through
    // verbatim (the label must be printable even for a scheme that
    // will fail to construct).
    const auto *pd = core::policyRegistry().find(policy);
    std::string base = policy;
    if (pd == nullptr || pd->usesMechanism)
        base += "/" + mechanism;
    if (transferPolicy != "fcfs")
        base += "/" + transferPolicy + "-xfer";
    return base;
}

double
IsolatedBaselineCache::timeUs(const std::string &benchmark,
                              const sim::Config &cfg, int minReplays)
{
    const std::string key = benchmark + "\n" +
        std::to_string(minReplays) + "\n" + cfg.fingerprint();
    auto it = values_.find(key);
    if (it != values_.end())
        return it->second;

    workload::SystemSpec spec;
    spec.benchmarks = {benchmark};
    spec.policy = "fcfs";
    spec.mechanism = "context_switch";
    spec.transferPolicy = "fcfs";
    spec.seed = 0x150ca7ed; // isolated runs share one fixed seed
    spec.minReplays = minReplays;

    workload::System system(spec, cfg);
    workload::SystemResult result = system.run();
    double us = result.meanTurnaroundUs.at(0);
    GPUMP_ASSERT(us > 0.0, "isolated run of %s took no time",
                 benchmark.c_str());
    ++computations_;
    values_.emplace(key, us);
    return us;
}

Runner::Runner(sim::Config base, int jobs)
    : base_(std::move(base)), jobs_(jobs < 1 ? 1 : jobs)
{
}

RunResult
Runner::runOne(const RunRequest &request)
{
    sim::Config cfg = base_;
    cfg.merge(request.overrides);

    // A serving request compiles its scenario (open-loop arrival
    // schedules, admission bounds, tenant priorities); a plain
    // request replays its plan closed-loop.  Everything downstream —
    // isolated baselines, ANTT/STP, result collection — is shared, so
    // the serving path inherits the batch determinism contract as-is.
    workload::SystemSpec spec;
    if (request.serving) {
        spec = serve::toSystemSpec(*request.serving,
                                   request.scheme.policy,
                                   request.scheme.mechanism,
                                   request.scheme.transferPolicy);
    } else {
        spec.benchmarks = request.plan.benchmarks;
        spec.priorities = request.plan.priorities();
        spec.policy = request.scheme.policy;
        spec.mechanism = request.scheme.mechanism;
        spec.transferPolicy = request.scheme.transferPolicy;
        spec.seed = request.plan.seed;
        spec.minReplays = request.minReplays;
    }
    // Baselines follow the processes actually simulated (== the plan's
    // benchmarks for plain requests; serving requests may leave the
    // plan empty).
    const std::vector<std::string> &benchmarks = spec.benchmarks;

    workload::System system(spec, cfg);

    RunResult out;
    out.index = request.index;
    out.tag = request.tag;
    out.scheme = request.scheme;
    auto t0 = std::chrono::steady_clock::now();
    out.sys = system.run(request.limit);
    out.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    out.isolatedUs.reserve(benchmarks.size());
    for (const auto &b : benchmarks)
        out.isolatedUs.push_back(
            baselines_.timeUs(b, cfg, request.minReplays));
    out.metrics = metrics::computeMetrics(out.isolatedUs,
                                          out.sys.meanTurnaroundUs);
    if (request.serving) {
        out.servingRun = true;
        out.serving = serve::computeServingMetrics(
            *request.serving, out.sys, out.isolatedUs);
    }
    return out;
}

double
Runner::isolatedTimeUs(const std::string &benchmark, int minReplays)
{
    return baselines_.timeUs(benchmark, base_, minReplays);
}

std::vector<RunResult>
Runner::run(const std::vector<RunRequest> &requests)
{
    return exec::runBatch(*this, requests, exec_);
}

} // namespace harness
} // namespace gpump
