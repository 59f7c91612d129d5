#include "serve/scenario.hh"

#include <cmath>

#include "sim/logging.hh"
#include "trace/parboil.hh"

namespace gpump {
namespace serve {

void
ScenarioSpec::validate() const
{
    if (tenants.empty())
        sim::fatal("scenario '%s' has no tenants", name.c_str());
    if (!(horizonUs > 0.0) || !std::isfinite(horizonUs))
        sim::fatal("scenario '%s' needs a positive horizon, got %f us",
                   name.c_str(), horizonUs);
    if (windowUs < 0.0 || !std::isfinite(windowUs))
        sim::fatal("scenario '%s': bad fairness window %f us",
                   name.c_str(), windowUs);
    for (const TenantSpec &t : tenants) {
        trace::findBenchmark(t.benchmark); // fatal on unknown names
        if (t.maxBacklog < 0)
            sim::fatal("tenant '%s': negative admission backlog",
                       t.benchmark.c_str());
        if (!std::isfinite(t.deadlineUs))
            sim::fatal("tenant '%s': non-finite deadline",
                       t.benchmark.c_str());
        t.arrivals.validate();
    }
}

std::string
ScenarioSpec::fingerprint() const
{
    // Hexfloat ("%a") renders every double exactly, so two scenarios
    // fingerprint equal iff every parameter is bit-equal.
    auto hex = [](double v) { return sim::strformat("%a", v); };
    std::string out = "scenario{name=" + name;
    out += ";horizon=" + hex(horizonUs);
    out += ";max_req=" + std::to_string(maxRequestsPerTenant);
    out += ";window=" + hex(windowUs);
    out += ";seed=" + std::to_string(seed);
    for (const TenantSpec &t : tenants) {
        out += ";tenant{" + t.name + "|" + t.benchmark + "|" +
            t.className + "|" + std::to_string(t.priority) + "|" +
            hex(t.deadlineUs) + "|" + std::to_string(t.maxBacklog);
        const ArrivalSpec &a = t.arrivals;
        out += "|arr=" +
            std::to_string(static_cast<int>(a.kind)) + "," +
            hex(a.ratePerSec) + "," + hex(a.burstMeanUs) + "," +
            hex(a.idleMeanUs);
        if (!a.traceUs.empty()) {
            out += ",trace:";
            for (std::size_t i = 0; i < a.traceUs.size(); ++i)
                out += (i ? " " : "") + hex(a.traceUs[i]);
        }
        out += "}";
    }
    out += "}";
    return out;
}

std::vector<std::vector<sim::SimTime>>
makeTimelines(const ScenarioSpec &spec)
{
    spec.validate();
    const sim::SimTime horizon = sim::microseconds(spec.horizonUs);
    // One fork per tenant in declaration order: tenant i's timeline
    // is pinned by (seed, i, arrivals) alone.
    sim::Rng root(spec.seed);
    std::vector<std::vector<sim::SimTime>> timelines;
    timelines.reserve(spec.tenants.size());
    for (const TenantSpec &t : spec.tenants) {
        sim::Rng child = root.fork();
        timelines.push_back(makeTimeline(t.arrivals, child, horizon,
                                         spec.maxRequestsPerTenant));
    }
    return timelines;
}

workload::SystemSpec
toSystemSpec(const ScenarioSpec &spec, const std::string &policy,
             const std::string &mechanism,
             const std::string &transferPolicy)
{
    workload::SystemSpec sys;
    sys.arrivalSchedules = makeTimelines(spec); // validates the spec
    for (const TenantSpec &t : spec.tenants) {
        sys.benchmarks.push_back(t.benchmark);
        sys.priorities.push_back(t.priority);
        sys.admissionBacklogs.push_back(t.maxBacklog);
    }
    sys.policy = policy;
    sys.mechanism = mechanism;
    sys.transferPolicy = transferPolicy;
    sys.seed = spec.seed;
    return sys;
}

} // namespace serve
} // namespace gpump
