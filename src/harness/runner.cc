#include "harness/runner.hh"

#include <chrono>
#include <exception>
#include <utility>

#include "core/policy.hh"
#include "core/preemption.hh"
#include "harness/exec/coordinator.hh"
#include "harness/interrupt.hh"
#include "sim/logging.hh"

namespace gpump {
namespace harness {

std::string
Scheme::label() const
{
    // Registry-driven: aliases canonicalize ("cs" -> "context_switch")
    // and policies that never preempt (fcfs, npq, ...) collapse the
    // mechanism component, so distinct registered schemes can never
    // share a label.  Unregistered names pass through verbatim (the
    // label must be printable even for a scheme that will fail to
    // construct).
    const auto *pd = core::policyRegistry().find(policy);
    const auto *md = core::mechanismRegistry().find(mechanism);
    std::string base = pd ? pd->name : policy;
    if (pd == nullptr || pd->usesMechanism)
        base += "/" + (md ? md->name : mechanism);
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

    std::promise<double> promise;
    bool compute = false;
    std::shared_future<double> future;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = futures_.find(key);
        if (it == futures_.end()) {
            future = promise.get_future().share();
            futures_.emplace(key, future);
            compute = true;
        } else {
            future = it->second;
        }
    }

    if (compute) {
        try {
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
            computations_.fetch_add(1, std::memory_order_relaxed);
            promise.set_value(us);
        } catch (...) {
            promise.set_exception(std::current_exception());
        }
    }
    return future.get();
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
    // Parallel or cached batches go to the exec coordinator, which
    // forks max(1, jobs) workers and merges by request position, so
    // its results equal the loop below byte for byte.
    if (jobs_ > 1 || !exec_.cacheDir.empty())
        return exec::runBatch(*this, requests, exec_);

    std::vector<RunResult> results;
    results.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (interruptRequested()) {
            int sig = interruptSignal();
            throw InterruptedError(
                sim::strformat("batch interrupted by signal %d after "
                               "%zu/%zu requests",
                               sig, i, requests.size()),
                sig);
        }
        results.push_back(runOne(requests[i]));
        results.back().index = i;
        if (progress_)
            progress_(i + 1, requests.size(), requests[i],
                      results.back());
    }
    return results;
}

} // namespace harness
} // namespace gpump
