#include "workload/generator.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/random.hh"
#include "trace/parboil.hh"

namespace gpump {
namespace workload {

namespace {

std::vector<std::string>
suiteNames()
{
    std::vector<std::string> names;
    for (const auto &b : trace::parboilSuite())
        names.push_back(b.name);
    return names;
}

/** Deterministic Fisher-Yates with our portable RNG. */
void
shuffle(std::vector<std::string> &v, sim::Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i) {
        auto j = static_cast<std::size_t>(rng.uniformInt(
            static_cast<std::uint64_t>(i)));
        std::swap(v[i - 1], v[j]);
    }
}

} // namespace

std::string
WorkloadPlan::fingerprint() const
{
    std::string out = "plan{benchmarks=";
    for (std::size_t i = 0; i < benchmarks.size(); ++i)
        out += (i ? "," : "") + benchmarks[i];
    out += ";hi=" + std::to_string(highPriorityIndex);
    out += ";seed=" + std::to_string(seed) + "}";
    return out;
}

std::vector<int>
WorkloadPlan::priorities() const
{
    if (highPriorityIndex < 0)
        return {};
    std::vector<int> prio(benchmarks.size(), 0);
    prio[static_cast<std::size_t>(highPriorityIndex)] = 1;
    return prio;
}

std::vector<WorkloadPlan>
makePrioritizedPlans(int nprocs, int per_bench, std::uint64_t base_seed)
{
    auto names = suiteNames();
    if (nprocs < 2 || nprocs > static_cast<int>(names.size())) {
        sim::fatal("prioritized plans need 2..%zu processes, got %d",
                   names.size(), nprocs);
    }
    if (per_bench < 0)
        sim::fatal("prioritized plans per benchmark must be >= 0, got %d",
                   per_bench);

    sim::Rng rng(base_seed);
    std::vector<WorkloadPlan> plans;
    for (const auto &hp : names) {
        for (int rep = 0; rep < per_bench; ++rep) {
            std::vector<std::string> others;
            for (const auto &n : names) {
                if (n != hp)
                    others.push_back(n);
            }
            shuffle(others, rng);

            WorkloadPlan plan;
            plan.benchmarks.push_back(hp);
            for (int i = 0; i < nprocs - 1; ++i)
                plan.benchmarks.push_back(others[
                    static_cast<std::size_t>(i)]);
            plan.highPriorityIndex = 0;
            plan.seed = rng.next() | 1;
            plans.push_back(std::move(plan));
        }
    }
    return plans;
}

std::vector<WorkloadPlan>
makeUniformPlans(int nprocs, int count, std::uint64_t base_seed)
{
    auto names = suiteNames();
    if (nprocs < 1 || nprocs > static_cast<int>(names.size())) {
        sim::fatal("uniform plans need 1..%zu processes, got %d",
                   names.size(), nprocs);
    }
    if (count < 0)
        sim::fatal("uniform plan count must be >= 0, got %d", count);

    sim::Rng rng(base_seed);
    std::vector<WorkloadPlan> plans;
    plans.reserve(static_cast<std::size_t>(count));
    for (int w = 0; w < count; ++w) {
        auto pool = names;
        shuffle(pool, rng);
        WorkloadPlan plan;
        plan.benchmarks.assign(pool.begin(), pool.begin() + nprocs);
        plan.seed = rng.next() | 1;
        plans.push_back(std::move(plan));
    }
    return plans;
}

} // namespace workload
} // namespace gpump
