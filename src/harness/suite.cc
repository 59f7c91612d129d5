#include "harness/suite.hh"

#include <set>
#include <utility>

#include "core/policy.hh"
#include "core/preemption.hh"
#include "harness/report.hh"
#include "sim/logging.hh"

namespace gpump {
namespace harness {

std::size_t
Batch::indexOf(std::size_t sizeIdx, std::size_t planIdx,
               std::size_t schemeIdx) const
{
    GPUMP_ASSERT(sizeIdx < sizes.size() &&
                     planIdx < plansBySize[sizeIdx].size() &&
                     schemeIdx < schemes.size(),
                 "batch cell (%zu, %zu, %zu) out of range", sizeIdx,
                 planIdx, schemeIdx);
    return sizeOffsets_[sizeIdx] + planIdx * schemes.size() + schemeIdx;
}

Suite::Suite(std::string name)
    : name_(std::move(name))
{
}

Suite &
Suite::sizes(std::vector<int> s)
{
    sizes_ = std::move(s);
    return *this;
}

Suite &
Suite::prioritized(int per_bench, std::uint64_t base_seed)
{
    plansFor_ = [per_bench, base_seed](int size) {
        return workload::makePrioritizedPlans(
            size, per_bench, base_seed + static_cast<unsigned>(size));
    };
    return *this;
}

Suite &
Suite::uniform(int count, std::uint64_t base_seed)
{
    plansFor_ = [count, base_seed](int size) {
        return workload::makeUniformPlans(
            size, count, base_seed + static_cast<unsigned>(size));
    };
    return *this;
}

Suite &
Suite::fixedPlans(std::vector<workload::WorkloadPlan> plans)
{
    int size = plans.empty()
        ? 0
        : static_cast<int>(plans.front().benchmarks.size());
    sizes_ = {size};
    plansFor_ = [plans = std::move(plans)](int) { return plans; };
    return *this;
}

Suite &
Suite::serving(std::vector<serve::ScenarioSpec> scenarios)
{
    GPUMP_ASSERT(!scenarios.empty(),
                 "suite '%s': serving() needs at least one scenario",
                 name_.c_str());
    serving_.clear();
    std::vector<workload::WorkloadPlan> plans;
    std::set<std::string> names;
    for (serve::ScenarioSpec &sc : scenarios) {
        sc.validate();
        if (!names.insert(sc.name).second) {
            sim::fatal("suite '%s' has two scenarios named '%s'",
                       name_.c_str(), sc.name.c_str());
        }
        auto shared = std::make_shared<const serve::ScenarioSpec>(
            std::move(sc));
        workload::WorkloadPlan plan;
        for (const serve::TenantSpec &t : shared->tenants)
            plan.benchmarks.push_back(t.benchmark);
        plan.seed = shared->seed;
        plans.push_back(std::move(plan));
        serving_.push_back(std::move(shared));
    }
    // One size bucket; the "size" coordinate is meaningless for
    // scenarios (tenant counts may differ per plan), so it is 0 and
    // reports key on the scenario name instead.
    sizes_ = {0};
    plansFor_ = [plans = std::move(plans)](int) { return plans; };
    return *this;
}

Suite &
Suite::scheme(std::string name, Scheme s)
{
    return scheme(std::move(name), std::move(s), sim::Config());
}

Suite &
Suite::scheme(std::string name, Scheme s, sim::Config overrides)
{
    SchemeSpec spec;
    spec.name = std::move(name);
    spec.scheme = std::move(s);
    spec.overrides = std::move(overrides);
    schemes_.push_back(std::move(spec));
    return *this;
}

Suite &
Suite::schemeNonprioritized(std::string name, Scheme s)
{
    SchemeSpec spec;
    spec.name = std::move(name);
    spec.scheme = std::move(s);
    spec.dropPriorities = true;
    schemes_.push_back(std::move(spec));
    return *this;
}

Suite &
Suite::minReplays(int n)
{
    minReplays_ = n;
    return *this;
}

Suite &
Suite::limit(sim::SimTime t)
{
    limit_ = t;
    return *this;
}

Batch
Suite::build() const
{
    GPUMP_ASSERT(plansFor_ != nullptr,
                 "suite '%s' has no plan source (call prioritized(), "
                 "uniform() or fixedPlans())",
                 name_.c_str());
    GPUMP_ASSERT(!schemes_.empty(), "suite '%s' has no schemes",
                 name_.c_str());

    // Registry-driven validation: fail fast on unknown scheme names
    // (the registry error lists every registered entry) and on
    // colliding columns, before any simulation time is spent.
    std::set<std::string> names;
    std::set<std::string> identities;
    for (const SchemeSpec &spec : schemes_) {
        core::policyRegistry().at(spec.scheme.policy);
        core::mechanismRegistry().at(spec.scheme.mechanism);
        if (!names.insert(spec.name).second) {
            sim::fatal("suite '%s' has two scheme columns named '%s'",
                       name_.c_str(), spec.name.c_str());
        }
        std::string identity = spec.scheme.label() + "\n" +
            spec.overrides.fingerprint() + "\n" +
            (spec.dropPriorities ? "noprio" : "prio");
        if (!identities.insert(identity).second) {
            sim::fatal("suite '%s': columns duplicate the scheme '%s' "
                       "(same overrides and prioritization)",
                       name_.c_str(), spec.scheme.label().c_str());
        }
    }

    Batch batch;
    batch.name = name_;
    batch.sizes = sizes_;
    batch.schemes = schemes_;
    for (int size : sizes_) {
        batch.sizeOffsets_.push_back(batch.requests.size());
        batch.plansBySize.push_back(plansFor_(size));
        const auto &plans = batch.plansBySize.back();
        for (std::size_t pi = 0; pi < plans.size(); ++pi) {
            for (const auto &spec : schemes_) {
                RunRequest req;
                req.plan = plans[pi];
                if (spec.dropPriorities)
                    req.plan.highPriorityIndex = -1;
                req.scheme = spec.scheme;
                req.overrides = spec.overrides;
                req.minReplays = minReplays_;
                req.limit = limit_;
                req.index = batch.requests.size();
                if (!serving_.empty()) {
                    req.serving = serving_[pi];
                    req.tag = name_ + "/" + req.serving->name + "/" +
                        spec.name;
                } else {
                    req.tag = name_ + "/size=" + std::to_string(size) +
                        "/plan=" + std::to_string(pi) + "/" + spec.name;
                }
                batch.requests.push_back(std::move(req));
            }
        }
    }
    return batch;
}

namespace {

/** Registered doc string of a scheme's policy ("" when unknown). */
std::string
policyDocOf(const Scheme &s)
{
    const auto *d = core::policyRegistry().find(s.policy);
    return d ? d->doc : "";
}

/** Registered doc string of a scheme's mechanism; "" for unknown
 *  names and for policies the mechanism never acts under. */
std::string
mechanismDocOf(const Scheme &s)
{
    const auto *pd = core::policyRegistry().find(s.policy);
    if (pd != nullptr && !pd->usesMechanism)
        return "";
    const auto *d = core::mechanismRegistry().find(s.mechanism);
    return d ? d->doc : "";
}

} // namespace

std::string
writeResultsJsonl(const std::string &path, const Batch &batch,
                  const std::vector<RunResult> &results)
{
    GPUMP_ASSERT(results.size() == batch.requests.size(),
                 "writeResultsJsonl: %zu results for %zu requests",
                 results.size(), batch.requests.size());

    JsonlWriter out(path);
    for (std::size_t si = 0; si < batch.sizes.size(); ++si) {
        for (std::size_t pi = 0; pi < batch.numPlans(si); ++pi) {
            for (std::size_t ci = 0; ci < batch.schemes.size(); ++ci) {
                std::size_t idx = batch.indexOf(si, pi, ci);
                const RunRequest &req = batch.requests[idx];
                const RunResult &r = results[idx];
                JsonObject o;
                o.add("suite", batch.name)
                    .add("index", static_cast<std::int64_t>(idx))
                    .add("tag", req.tag)
                    .add("size", static_cast<std::int64_t>(
                                     batch.sizes[si]))
                    .add("plan", static_cast<std::int64_t>(pi))
                    .add("scheme", batch.schemes[ci].name)
                    .add("label", req.scheme.label())
                    .add("policy_doc", policyDocOf(req.scheme))
                    .add("mechanism_doc", mechanismDocOf(req.scheme))
                    .add("benchmarks", req.plan.benchmarks)
                    .add("seed",
                         sim::strformat("%llu",
                                        static_cast<unsigned long long>(
                                            req.plan.seed)))
                    .add("antt", r.metrics.antt)
                    .add("stp", r.metrics.stp)
                    .add("fairness", r.metrics.fairness)
                    .add("ntt", r.metrics.ntt)
                    .add("turnaround_us", r.sys.meanTurnaroundUs)
                    .add("isolated_us", r.isolatedUs)
                    .add("preemptions", static_cast<std::int64_t>(
                                            r.sys.preemptions))
                    .add("kernels_completed",
                         static_cast<std::int64_t>(
                             r.sys.kernelsCompleted))
                    .add("end_time_us",
                         sim::toMicroseconds(r.sys.endTime))
                    .add("events_executed",
                         static_cast<std::int64_t>(r.sys.eventsExecuted))
                    .add("wall_seconds", r.wallSeconds)
                    .add("events_per_sec", r.eventsPerSec());
                if (r.servingRun) {
                    // Per-class SLO metrics, index-aligned vectors
                    // (non-finite values — empty classes, undefined
                    // fairness — render as null by JsonObject's
                    // convention).
                    std::vector<std::string> cls;
                    std::vector<std::int64_t> requests, completed,
                        dropped, misses, counts;
                    std::vector<double> mean, p50, p99, p999, maxv,
                        miss_rate, tput, goodput;
                    for (const serve::ClassMetrics &c :
                         r.serving.classes) {
                        cls.push_back(c.name);
                        requests.push_back(c.requests);
                        completed.push_back(c.completed);
                        dropped.push_back(c.dropped);
                        misses.push_back(c.deadlineMisses);
                        counts.push_back(c.latency.n);
                        mean.push_back(c.latency.mean);
                        p50.push_back(c.latency.p50);
                        p99.push_back(c.latency.p99);
                        p999.push_back(c.latency.p999);
                        maxv.push_back(c.latency.max);
                        miss_rate.push_back(c.missRate);
                        tput.push_back(c.throughputPerSec);
                        goodput.push_back(c.goodputPerSec);
                    }
                    o.add("scenario", req.serving->name)
                        .add("horizon_us", req.serving->horizonUs)
                        .add("classes", cls)
                        .add("requests", requests)
                        .add("completed", completed)
                        .add("dropped", dropped)
                        .add("deadline_misses", misses)
                        .add("latency_n", counts)
                        .add("latency_mean_us", mean)
                        .add("latency_p50_us", p50)
                        .add("latency_p99_us", p99)
                        .add("latency_p999_us", p999)
                        .add("latency_max_us", maxv)
                        .add("miss_rate", miss_rate)
                        .add("throughput_per_sec", tput)
                        .add("goodput_per_sec", goodput)
                        .add("window_fairness", r.serving.windowFairness)
                        .add("window_us", r.serving.windowUs);
                }
                out.write(o);
            }
        }
    }
    return out.path();
}

} // namespace harness
} // namespace gpump
