/**
 * @file
 * Registering a scheduling policy from outside src/ — the "add a
 * policy in 30 lines" recipe (DESIGN.md §6).
 *
 * This file lives entirely outside the simulator library and touches
 * nothing under src/core/: it implements a shortest-job-first
 * admission policy against the public SchedulingPolicy + framework
 * surface, registers it (with a declared, validated tunable) through
 * the scheme registry, and then runs it by *name* through the same
 * harness::Suite / Runner machinery the paper's figures use.  The
 * policy shows up in --list-schemes of this binary like any built-in.
 *
 * Build & run:
 *   cmake -B build && cmake --build build --target example_custom_policy
 *   ./build/examples/custom_policy [--list-schemes]
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/framework.hh"
#include "core/policy.hh"
#include "harness/args.hh"
#include "harness/suite.hh"
#include "trace/parboil.hh"

using namespace gpump;

namespace {

/**
 * Shortest-job-first scheduling: whenever the engine frees up, the
 * active kernel with the least profiled work runs next (one context
 * at a time, no preemption — the baseline GPU with its arrival-order
 * queue replaced by a size-ordered one).  "sjf.by_remaining_tbs"
 * switches the job-size estimate from profiled kernel time to the
 * number of thread blocks still outstanding.
 */
class SjfPolicy : public core::SchedulingPolicy
{
  public:
    explicit SjfPolicy(bool by_tbs) : byTbs_(by_tbs) {}

    const char *name() const override { return "sjf"; }

    void onCommandWaiting(sim::ContextId) override { pump(); }
    void onSmIdle(gpu::Sm *) override { pump(); }
    void onKernelFinished(gpu::KernelExec *) override { pump(); }
    void onPreemptionComplete(gpu::Sm *, gpu::KernelExec *) override
    {
        sim::panic("SJF never reserves an SM");
    }

  private:
    double jobSize(const gpu::KernelExec *k) const
    {
        return byTbs_
            ? static_cast<double>(k->totalTbs() - k->completed())
            : k->profile().avgTimeUs;
    }

    void pump()
    {
        fw_->admitInArrivalOrder();
        // Smallest job first; stable on the admission order so ties
        // stay deterministic.  One context at a time, like the
        // baseline GPU: once a kernel holds SMs, only kernels of its
        // context may join it.
        std::vector<gpu::KernelExec *> order = fw_->activeKernels();
        std::stable_sort(order.begin(), order.end(),
                         [this](const gpu::KernelExec *a,
                                const gpu::KernelExec *b) {
                             return jobSize(a) < jobSize(b);
                         });
        sim::ContextId engine_ctx = fw_->engineContext();
        for (gpu::KernelExec *k : order) {
            if (engine_ctx != sim::invalidContext &&
                k->ctx() != engine_ctx)
                continue;
            if (!fw_->fillIdleSms(k))
                return; // no idle SM left
            engine_ctx = fw_->engineContext();
        }
    }

    bool byTbs_;
};

// The whole registration: a descriptor handed to the registry from a
// static object.  No core file knows this policy exists.
const bool registered_sjf = [] {
    core::PolicyRegistry::Descriptor d;
    d.name = "sjf";
    d.doc = "Shortest-job-first (out-of-tree example policy): the "
            "smallest active kernel runs next whenever the engine "
            "frees up; no preemption";
    d.usesMechanism = false;
    d.configPrefix = "sjf";
    d.tunables = {
        {"sjf.by_remaining_tbs", core::TunableType::Bool, "false",
         "rank jobs by grid size instead of profiled kernel time"},
    };
    d.factory = [](const sim::Config &cfg) {
        return std::make_unique<SjfPolicy>(
            cfg.getBool("sjf.by_remaining_tbs", false));
    };
    core::policyRegistry().add(std::move(d));
    return true;
}();

} // namespace

int
main(int argc, char **argv)
{
    harness::Args args(argc, argv);
    if (!registered_sjf)
        return 1;

    // A mix the ordering matters for: a short-kernel job (spmv)
    // behind two long ones.  FCFS serves arrival order; SJF lets the
    // short job jump the queue.
    workload::WorkloadPlan plan;
    plan.benchmarks = {"tpacf", "sad", "mri-gridding", "spmv"};
    plan.seed = 20140614;

    harness::Suite suite("custom_policy");
    suite.fixedPlans({plan})
        .minReplays(2)
        .limit(sim::seconds(120.0))
        .scheme("FCFS", {"fcfs", "context_switch", "fcfs"})
        .scheme("SJF", {"sjf", "context_switch", "fcfs"});
    harness::Batch batch = suite.build();

    harness::Runner runner(args.config());
    auto results = runner.run(batch.requests);
    const harness::RunResult &fcfs = results[batch.indexOf(0, 0, 0)];
    const harness::RunResult &sjf = results[batch.indexOf(0, 0, 1)];

    std::printf("scheme  ANTT     spmv turnaround (us)  \n");
    std::printf("%-6s  %-7.2f  %10.1f\n", "fcfs", fcfs.metrics.antt,
                fcfs.sys.meanTurnaroundUs[3]);
    std::printf("%-6s  %-7.2f  %10.1f\n", "sjf", sjf.metrics.antt,
                sjf.sys.meanTurnaroundUs[3]);

    if (sjf.sys.meanTurnaroundUs[3] >= fcfs.sys.meanTurnaroundUs[3]) {
        std::fprintf(stderr, "SJF failed to speed up the short-kernel job\n");
        return 1;
    }

    // The registered tunable reaches the policy through the same
    // validated config path as any built-in knob.
    sim::Config by_tbs;
    by_tbs.set("sjf.by_remaining_tbs", true);
    harness::Runner runner2(by_tbs);
    harness::RunRequest req = batch.requests[1];
    auto alt = runner2.runOne(req);
    std::printf("%-6s  %-7.2f  %10.1f  (ranked by grid size)\n", "sjf",
                alt.metrics.antt, alt.sys.meanTurnaroundUs[3]);

    std::printf("\ncustom policy 'sjf' registered and scheduled "
                "without touching src/core.\n");
    return 0;
}
