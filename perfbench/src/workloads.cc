#include "workloads.hh"

#include <algorithm>
#include <map>
#include <set>
#include <thread>

#include "serve/scenario.hh"
#include "sim/logging.hh"
#include "trace/parboil.hh"
#include "workload/generator.hh"

namespace perfbench {

using namespace gpump;
using harness::Runner;
using harness::Suite;
using workload::WorkloadPlan;

namespace {

/** The figure benches' thread-block duration variability
 *  (bench_util.hh figureConfig). */
sim::Config
figureConfig()
{
    sim::Config cfg;
    cfg.set("gpu.tb_time_cv", 0.25);
    return cfg;
}

/**
 * Plans @p pick of a generated plan list: membership from the list
 * generated at the default seed, simulation seeds from the list
 * generated at @p seed.  At the default seed this is exactly the
 * figure benches' plan list.
 */
std::vector<WorkloadPlan>
seededPlans(const std::vector<WorkloadPlan> &shape,
            const std::vector<WorkloadPlan> &seeded,
            const std::vector<std::size_t> &pick)
{
    std::vector<WorkloadPlan> out;
    for (std::size_t i : pick) {
        WorkloadPlan p = shape.at(i);
        p.seed = seeded.at(i).seed;
        out.push_back(std::move(p));
    }
    return out;
}

std::vector<std::size_t>
allIndices(std::size_t n)
{
    std::vector<std::size_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = i;
    return v;
}

harness::Batch
buildSuite(const Suite &suite, Tracer &tracer)
{
    Tracer::Scope span(tracer, "harness.Suite::build", -1);
    return suite.build();
}

void
warmBaselines(Runner &runner, const harness::Batch &batch, int replays,
              Tracer &tracer)
{
    std::set<std::string> seen;
    for (const auto &req : batch.requests) {
        for (const std::string &b : req.plan.benchmarks) {
            if (!seen.insert(b).second)
                continue;
            Tracer::Scope span(tracer, "harness.Runner::isolatedTimeUs",
                               -1);
            runner.isolatedTimeUs(b, replays);
        }
    }
}

constexpr int quickReplays = 2;  // the figure benches' --quick
constexpr int serveReplays = 3;  // bench_serve_slo's default

/** Figure 5's prioritized closed-loop mixes (fig5_ppq_ntt --quick). */
Workload
prioClosed(std::uint64_t seed, Tracer &tracer)
{
    Workload w;
    w.runner = std::make_unique<Runner>(figureConfig(), 1);

    // Every 2-process plan (the pinned fig5 cell) and the 4-process
    // plans without lbm: one lbm mix at 4 processes alone takes
    // longer than this whole batch.
    std::vector<WorkloadPlan> plans;
    const std::vector<std::pair<int, std::vector<std::size_t>>> picks = {
        {2, allIndices(10)}, {4, {1, 2, 4, 8}}};
    for (const auto &[size, pick] : picks) {
        auto shape = workload::makePrioritizedPlans(
            size, 1, defaultSeed + static_cast<unsigned>(size));
        auto seeded = workload::makePrioritizedPlans(
            size, 1, seed + static_cast<unsigned>(size));
        for (auto &p : seededPlans(shape, seeded, pick))
            plans.push_back(std::move(p));
    }

    Suite suite("prio_closed");
    suite.fixedPlans(plans)
        .minReplays(quickReplays)
        .schemeNonprioritized("BASE", {"fcfs", "context_switch", "fcfs"})
        .scheme("NPQ", {"npq", "context_switch", "priority"})
        .scheme("PPQ-CS", {"ppq_excl", "context_switch", "priority"})
        .scheme("PPQ-Drain", {"ppq_excl", "draining", "priority"});
    w.batch = buildSuite(suite, tracer);
    warmBaselines(*w.runner, w.batch, quickReplays, tracer);
    return w;
}

/** bench_serve_slo's scenario at one latency-class load factor. */
serve::ScenarioSpec
scenarioAt(int load_pct, double horizon_mult, std::uint64_t seed,
           const double iso_us[3])
{
    static const char *const benches[] = {"mri-q", "sad", "sgemm"};
    const double load = load_pct / 100.0;
    serve::ScenarioSpec sc;
    sc.name = "load=" + std::to_string(load_pct);
    sc.horizonUs = horizon_mult * iso_us[0];
    sc.seed = seed;

    serve::TenantSpec latency;
    latency.name = "latency";
    latency.benchmark = benches[0];
    latency.className = "latency";
    latency.priority = 1;
    latency.deadlineUs = 3.0 * iso_us[0];
    latency.arrivals.kind = serve::ArrivalSpec::Kind::Poisson;
    latency.arrivals.ratePerSec = load / (iso_us[0] * 1e-6);
    latency.maxBacklog = 8;
    sc.tenants.push_back(latency);

    for (int i = 1; i <= 2; ++i) {
        serve::TenantSpec batch;
        batch.name = std::string("batch-") + benches[i];
        batch.benchmark = benches[i];
        batch.className = "batch";
        batch.priority = 0;
        batch.arrivals.kind = serve::ArrivalSpec::Kind::Poisson;
        batch.arrivals.ratePerSec = 0.4 / (iso_us[i] * 1e-6);
        sc.tenants.push_back(batch);
    }
    return sc;
}

/** bench_serve_slo's full load sweep plus a pred_adaptive column. */
Workload
serveOpen(std::uint64_t seed, Tracer &tracer)
{
    Workload w;
    w.runner = std::make_unique<Runner>(figureConfig(), 1);

    // Arrival rates are load factors over the isolated service times,
    // so the baselines come first here.
    double iso[3];
    const char *const benches[] = {"mri-q", "sad", "sgemm"};
    for (int i = 0; i < 3; ++i) {
        Tracer::Scope span(tracer, "harness.Runner::isolatedTimeUs", -1);
        iso[i] = w.runner->isolatedTimeUs(benches[i], serveReplays);
    }

    // The batch tenants offer few, long requests (about five sad
    // executions per horizon), so their Poisson counts alone would
    // move a batch's cost by tens of percent from seed to seed.  The
    // scenario seed is therefore the first one drawn from --seed whose
    // batch tenants offer as many requests as at the default seed:
    // arrival times vary with the seed, the offered batch work does
    // not.  Their timelines do not depend on the load, so one load
    // decides.  At the default seed this is the seed itself.
    constexpr double horizonMult = 120.0; // bench_serve_slo's default
    auto batch_counts = [&](std::uint64_t s) {
        auto tl = serve::makeTimelines(scenarioAt(30, horizonMult, s, iso));
        return std::make_pair(tl[1].size(), tl[2].size());
    };
    std::uint64_t scenario_seed = seed;
    {
        Tracer::Scope span(tracer, "serve.makeTimelines", -1);
        const auto target = batch_counts(defaultSeed);
        sim::Rng draw(seed);
        while (batch_counts(scenario_seed) != target)
            scenario_seed = draw.next();
    }

    std::vector<serve::ScenarioSpec> scenarios;
    std::map<std::string, std::int64_t> offered;
    for (int pct : {30, 60, 90, 120}) {
        scenarios.push_back(
            scenarioAt(pct, horizonMult, scenario_seed, iso));
        Tracer::Scope span(tracer, "serve.makeTimelines", -1);
        std::int64_t n = 0;
        for (const auto &t : serve::makeTimelines(scenarios.back()))
            n += static_cast<std::int64_t>(t.size());
        offered[scenarios.back().name] = n;
    }

    Suite suite("serve_open");
    suite.serving(scenarios)
        .minReplays(serveReplays)
        .scheme("FCFS", {"fcfs", "context_switch", "fcfs"})
        .scheme("PPQ-Aging/CS", {"ppq_aging", "context_switch", "priority"})
        .scheme("DSS-CS", {"dss", "context_switch", "fcfs"})
        .scheme("BORE-Burst/CS",
                {"bore_burst", "context_switch", "priority"})
        .scheme("PPQ/PredAdaptive",
                {"ppq_excl", "pred_adaptive", "priority"});
    w.batch = buildSuite(suite, tracer);
    for (const auto &req : w.batch.requests)
        w.offered.push_back(offered.at(req.serving->name));
    return w;
}

/** fig7_proactive-style 4-process mixes under memory contention. */
Workload
memContended(std::uint64_t seed, Tracer &tracer)
{
    sim::Config cfg = figureConfig();
    cfg.set("gmem.contended_switch", true);
    // Small enough that 4-process mixes swap contexts, large enough
    // that they do not thrash (128 MiB does; see README.md).
    cfg.set("gmem.capacity", static_cast<std::int64_t>(160) << 20);

    Workload w;
    w.runner = std::make_unique<Runner>(cfg, 1);
    // Forked workers, at most nproc.  Two rather than nproc: with four
    // on a 4-CPU host the workers' mutual contention moved per-request
    // host times by about 20% from run to run, against about 10% with
    // two.
    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    w.workers = static_cast<int>(std::min(2u, hw));

    constexpr int count = 6;
    auto shape = workload::makeUniformPlans(4, count, defaultSeed + 4);
    auto seeded = workload::makeUniformPlans(4, count, seed + 4);

    // Longest mixes first (the two with lbm, then by host cost), so
    // the workers start the long requests early and the batch does
    // not end on one straggler.
    const std::vector<std::size_t> order = {2, 4, 0, 5, 1, 3};

    Suite suite("mem_contended");
    suite.fixedPlans(seededPlans(shape, seeded, order))
        .minReplays(quickReplays)
        .scheme("FCFS", {"fcfs", "context_switch", "fcfs"})
        .scheme("DSS-CS", {"dss", "context_switch", "fcfs"})
        .scheme("DSS-Adaptive", {"dss", "adaptive", "fcfs"})
        .scheme("DSS-Proactive", {"dss", "proactive_mem", "fcfs"})
        .scheme("DSS-PredAdaptive", {"dss", "pred_adaptive", "fcfs"});
    w.batch = buildSuite(suite, tracer);
    // Forked workers inherit the warm cache, so no worker recomputes
    // a baseline inside a timed request.
    warmBaselines(*w.runner, w.batch, quickReplays, tracer);
    return w;
}

} // namespace

Workload
setUpWorkload(const std::string &name, std::uint64_t seed, Tracer &tracer)
{
    Workload w;
    if (name == "prio_closed")
        w = prioClosed(seed, tracer);
    else if (name == "serve_open")
        w = serveOpen(seed, tracer);
    else if (name == "mem_contended")
        w = memContended(seed, tracer);
    else
        sim::fatal("unknown workload '%s' (prio_closed, serve_open, "
                   "mem_contended)",
                   name.c_str());
    w.name = name;
    return w;
}

std::optional<double>
fig5QuickCell(const Workload &w,
              const std::vector<harness::RunResult> &results)
{
    if (w.name != "prio_closed" || results.size() != w.batch.requests.size())
        return std::nullopt;
    auto quick = workload::makePrioritizedPlans(2, 1, defaultSeed + 2);
    const auto &plans = w.batch.plansBySize.at(0);
    for (std::size_t pi = 0; pi < quick.size(); ++pi) {
        if (pi >= plans.size() || plans[pi].seed != quick[pi].seed ||
            plans[pi].benchmarks != quick[pi].benchmarks)
            return std::nullopt;
    }
    constexpr std::size_t base = 0, ppqCs = 2; // scheme columns
    double sum = 0.0;
    for (std::size_t pi = 0; pi < quick.size(); ++pi) {
        sum += results[w.batch.indexOf(0, pi, base)].metrics.ntt[0] /
            results[w.batch.indexOf(0, pi, ppqCs)].metrics.ntt[0];
    }
    return sum / static_cast<double>(quick.size());
}

std::int64_t
completedExecutionTbs(const harness::RunRequest &request,
                      const harness::RunResult &result)
{
    std::int64_t tbs = 0;
    const auto &benches = request.plan.benchmarks;
    for (std::size_t p = 0;
         p < benches.size() && p < result.sys.runs.size(); ++p) {
        const trace::BenchmarkSpec &spec = trace::findBenchmark(benches[p]);
        std::int64_t per_exec = 0;
        for (const trace::TraceOp &op : spec.ops) {
            if (op.kind == trace::TraceOp::Kind::KernelLaunch)
                per_exec += spec.kernels
                                .at(static_cast<std::size_t>(op.kernelIndex))
                                .numThreadBlocks;
        }
        tbs += per_exec *
            static_cast<std::int64_t>(result.sys.runs[p].size());
    }
    return tbs;
}

bool
observesCompletions(const harness::Scheme &scheme)
{
    return scheme.mechanism == "pred_adaptive" ||
        scheme.policy == "bore_burst";
}

} // namespace perfbench
