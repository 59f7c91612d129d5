#include "replay.hh"

#include <algorithm>
#include <chrono>
#include <memory>

#include "harness/exec/wire.hh"
#include "host.hh"
#include "metrics/metrics.hh"
#include "serve/scenario.hh"
#include "serve/slo.hh"
#include "sim/stats.hh"
#include "workload/system.hh"
#include "workloads.hh"

namespace perfbench {

using namespace gpump;
using harness::RunRequest;
using harness::RunResult;

namespace {

/** SystemSpec of @p request, as Runner::execute builds it (for a
 *  serving request: serve::toSystemSpec, split so the timeline
 *  generation gets its own span). */
workload::SystemSpec
buildSpec(const RunRequest &request, std::int64_t id, Tracer &tracer)
{
    workload::SystemSpec spec;
    if (request.serving) {
        const serve::ScenarioSpec &sc = *request.serving;
        {
            Tracer::Scope span(tracer, "serve.makeTimelines", id);
            spec.arrivalSchedules = serve::makeTimelines(sc);
        }
        for (const serve::TenantSpec &t : sc.tenants) {
            spec.benchmarks.push_back(t.benchmark);
            spec.priorities.push_back(t.priority);
            spec.admissionBacklogs.push_back(t.maxBacklog);
        }
        spec.seed = sc.seed;
    } else {
        spec.benchmarks = request.plan.benchmarks;
        spec.priorities = request.plan.priorities();
        spec.seed = request.plan.seed;
        spec.minReplays = request.minReplays;
    }
    spec.policy = request.scheme.policy;
    spec.mechanism = request.scheme.mechanism;
    spec.transferPolicy = request.scheme.transferPolicy;
    return spec;
}

/** Add every registered stat of @p sys to @p counts. */
void
collectStats(workload::System &sys, LayerCounts &counts)
{
    for (const sim::Stat *s : sys.sim().stats().all()) {
        StatSum &sum = counts.stats[s->name()];
        if (const auto *sc = dynamic_cast<const sim::Scalar *>(s)) {
            sum.sum += sc->value();
            sum.count += 1;
            sum.max = std::max(sum.max, sc->value());
        } else if (const auto *d =
                       dynamic_cast<const sim::Distribution *>(s)) {
            sum.sum += d->sum();
            sum.count += d->count();
            if (d->count())
                sum.max = std::max(sum.max, d->max());
        }
    }
}

} // namespace

std::optional<RunResult>
replayRequest(harness::Runner &runner, const RunRequest &request,
              std::int64_t id, std::int64_t offered, Tracer &tracer,
              harness::exec::ResultCache &cache, LayerCounts &counts)
{
    // Freed pages go back first, so the resident-set delta below is
    // what this run's System holds.
    releaseFreeHeap();
    const double rss_before = currentRssBytes();

    Tracer::Scope request_span(tracer, "harness.request", id);
    sim::Config cfg = runner.baseConfig();
    cfg.merge(request.overrides);
    workload::SystemSpec spec = buildSpec(request, id, tracer);

    RunResult out;
    out.index = request.index;
    out.tag = request.tag;
    out.scheme = request.scheme;
    {
        std::unique_ptr<workload::System> system;
        {
            Tracer::Scope span(tracer, "workload.System::System", id);
            system = std::make_unique<workload::System>(spec, cfg);
        }
        {
            Tracer::Scope span(tracer, "sim.System::run", id);
            auto t0 = std::chrono::steady_clock::now();
            out.sys = system->run(request.limit);
            out.wallSeconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
        }

        const double held = currentRssBytes() - rss_before;
        core::SchedulingFramework &fw = system->framework();
        const std::uint64_t events = system->sim().events().executed();
        counts.requests += 1;
        counts.events += events;
        counts.tbs += fw.tbsCompleted();
        counts.kernels += fw.kernelsCompleted();
        counts.preemptions += fw.preemptions();
        counts.ctxTransfers += fw.contextTransfers();
        counts.swapIns += system->residency().swapIns();
        counts.swapBytes += system->residency().swapBytes();
        counts.queueSlotsMax = std::max(
            counts.queueSlotsMax, system->sim().events().slotsAllocated());
        counts.runSeconds += out.wallSeconds;
        if (observesCompletions(request.scheme))
            counts.observedTbs += fw.tbsCompleted();
        if (events >= counts.largestRunEvents) {
            counts.largestRunEvents = events;
            counts.largestRunHeldBytes = held;
        }
        auto &scheme = counts.byScheme[request.scheme.label()];
        scheme.first += out.wallSeconds;
        scheme.second += fw.tbsCompleted();
        collectStats(*system, counts);
    }

    const std::vector<std::string> &benchmarks = spec.benchmarks;
    out.isolatedUs.reserve(benchmarks.size());
    for (const std::string &b : benchmarks) {
        Tracer::Scope span(tracer, "harness.Runner::isolatedTimeUs", id);
        out.isolatedUs.push_back(
            runner.baselines().timeUs(b, cfg, request.minReplays));
    }
    {
        Tracer::Scope span(tracer, "metrics.computeMetrics", id);
        out.metrics = metrics::computeMetrics(out.isolatedUs,
                                              out.sys.meanTurnaroundUs);
    }
    if (request.serving) {
        Tracer::Scope span(tracer, "serve.computeServingMetrics", id);
        out.servingRun = true;
        out.serving = serve::computeServingMetrics(*request.serving,
                                                   out.sys, out.isolatedUs);
    }
    counts.countedTbs += completedExecutionTbs(request, out);
    counts.offered += offered;
    for (std::int64_t d : out.sys.droppedRequests)
        counts.dropped += d;

    std::string line;
    {
        Tracer::Scope span(tracer, "exec.encodeResult", id);
        line = harness::exec::encodeResult(out);
    }
    counts.resultBytes += static_cast<double>(line.size());
    RunResult decoded;
    {
        Tracer::Scope span(tracer, "exec.decodeResult", id);
        decoded = harness::exec::decodeResult(line);
    }
    const std::string key =
        harness::exec::requestKey(runner.baseConfig(), request);
    {
        Tracer::Scope span(tracer, "exec.ResultCache::store", id);
        cache.store(key, decoded);
    }
    RunResult cached;
    bool hit;
    {
        Tracer::Scope span(tracer, "exec.ResultCache::lookup", id);
        hit = cache.lookup(key, cached);
    }
    if (!hit)
        return std::nullopt;
    return cached;
}

} // namespace perfbench
