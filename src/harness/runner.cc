#include "harness/runner.hh"

#include <chrono>
#include <exception>
#include <thread>
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
    : base_(std::move(base))
{
    setJobs(jobs);
}

void
Runner::setJobs(int jobs)
{
    jobs_ = jobs < 1 ? 1 : jobs;
}

RunResult
Runner::execute(const RunRequest &request)
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

RunResult
Runner::runOne(const RunRequest &request)
{
    return execute(request);
}

double
Runner::isolatedTimeUs(const std::string &benchmark, int minReplays)
{
    return baselines_.timeUs(benchmark, base_, minReplays);
}

std::vector<RunResult>
Runner::run(const std::vector<RunRequest> &requests)
{
    // Multi-process backend: --workers and/or --cache-dir hand the
    // whole batch to the exec coordinator.  Same request-order merge,
    // so the results are byte-identical to the thread pool below.
    if (exec_.enabled())
        return exec::runBatch(*this, requests, exec_);

    std::vector<RunResult> results(requests.size());
    if (requests.empty())
        return results;

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::exception_ptr first_error;

    auto worker = [&] {
        for (;;) {
            // Claim the next unexecuted request; results are stored
            // by request position, never by completion order.  A
            // failure anywhere aborts the rest of the batch.
            if (failed.load(std::memory_order_relaxed) ||
                interruptRequested())
                return;
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= requests.size())
                return;
            try {
                results[i] = execute(requests[i]);
                results[i].index = i;
            } catch (...) {
                failed.store(true, std::memory_order_relaxed);
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
                continue;
            }
            std::size_t d = done.fetch_add(1,
                                           std::memory_order_relaxed) +
                1;
            if (progress_)
                progress_(d, requests.size(), requests[i], results[i]);
        }
    };

    std::size_t pool = static_cast<std::size_t>(jobs_);
    if (pool > requests.size())
        pool = requests.size();
    if (pool <= 1) {
        worker();
    } else {
        std::vector<std::thread> threads;
        threads.reserve(pool);
        for (std::size_t t = 0; t < pool; ++t)
            threads.emplace_back(worker);
        for (auto &t : threads)
            t.join();
    }

    if (first_error)
        std::rethrow_exception(first_error);
    if (interruptRequested()) {
        int sig = interruptSignal();
        throw InterruptedError(
            sim::strformat(
                "batch interrupted by signal %d after %zu/%zu requests",
                sig, done.load(std::memory_order_relaxed),
                requests.size()),
            sig);
    }
    return results;
}

} // namespace harness
} // namespace gpump
