/**
 * @file
 * Figure 2 of the paper as a live simulation: a soft real-time kernel
 * (K3, high priority) competes with two queued low-priority kernels
 * (K1 running, K2 queued) under three schedulers:
 *
 *   (a) FCFS                 - K3 waits for K1 and K2 (current GPUs);
 *   (b) nonpreemptive (NPQ)  - K3 jumps ahead of K2 but waits for K1;
 *   (c) preemptive (PPQ)     - K1 is preempted, K3 runs immediately.
 *
 * Prints an ASCII Gantt chart of the three timelines plus the
 * measured K3 latency under each scheduler.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/framework.hh"
#include "harness/args.hh"
#include "workload/device.hh"

using namespace gpump;

namespace {

struct Span
{
    std::string kernel;
    sim::SimTime start = -1;
    sim::SimTime end = -1;
};

struct TimelineProbe : core::EngineObserver
{
    sim::Simulation *sim = nullptr;
    std::map<std::string, Span> spans;

    void kernelStarted(const gpu::KernelExec &k) override
    {
        auto &s = spans[k.profile().kernel];
        s.kernel = k.profile().kernel;
        if (s.start < 0)
            s.start = sim->now();
    }
    void kernelFinished(const gpu::KernelExec &k, sim::SimTime now) override
    {
        spans[k.profile().kernel].end = now;
    }
};

/** Run the 3-kernel scenario; returns the kernel spans and K3's
 *  submission-to-completion latency. */
std::pair<std::map<std::string, Span>, sim::SimTime>
runScenario(const std::string &policy, const sim::Config &overrides)
{
    workload::Device dev(policy, "context_switch", overrides);
    TimelineProbe probe;
    probe.sim = &dev.sim;
    dev.framework.addObserver(&probe);

    // K1: long, fills the GPU (16 waves of 25 us).  K2: medium.
    // K3: short, has a deadline.  All from different processes.
    static const auto k1 = trace::makeProfile("K1", 13 * 16 * 16, 25.0);
    static const auto k2 = trace::makeProfile("K2", 13 * 16 * 8, 25.0);
    static const auto k3 = trace::makeProfile("K3", 13 * 16 / 2, 25.0);

    auto launch = [&dev](gpu::CommandQueue *q,
                         const trace::KernelProfile *k, int priority) {
        dev.dispatcher.enqueue(q,
                               dev.pool.makeKernel(q->ctx(), priority, k));
    };
    auto *q1 = dev.addContext(0, 0, 0);
    auto *q2 = dev.addContext(1, 0, 0);
    auto *q3 = dev.addContext(2, 0, 0);

    launch(q1, &k1, 0);
    // K2 and K3 arrive shortly after K1 started.
    sim::SimTime submit3 = sim::microseconds(100.0);
    dev.sim.events().schedule(sim::microseconds(50.0), [&launch, q2] {
        launch(q2, &k2, 0);
    });
    dev.sim.events().schedule(submit3, [&launch, q3] {
        launch(q3, &k3, 5);
    });
    dev.sim.run();

    sim::SimTime latency = probe.spans["K3"].end - submit3;
    return {probe.spans, latency};
}

void
printGantt(const char *title, const std::map<std::string, Span> &spans,
           sim::SimTime horizon)
{
    std::printf("%s\n", title);
    const int width = 64;
    for (const char *name : {"K1", "K2", "K3"}) {
        auto it = spans.find(name);
        if (it == spans.end())
            continue;
        const Span &s = it->second;
        int from = static_cast<int>(s.start * width / horizon);
        int to = std::max(from + 1,
                          static_cast<int>(s.end * width / horizon));
        std::string bar(static_cast<std::size_t>(width + 1), ' ');
        for (int i = from; i < std::min(to, width); ++i)
            bar[static_cast<std::size_t>(i)] = '#';
        std::printf("  %-3s |%s| %7.0f..%-7.0f us\n", name, bar.c_str(),
                    sim::toMicroseconds(s.start),
                    sim::toMicroseconds(s.end));
    }
}

int
run(int argc, char **argv)
{
    // --list-schemes and config key=value overrides work in every
    // example binary; Args handles the flag and exits, and the
    // collected overrides feed every simulation below.
    harness::Args args(argc, argv);

    std::printf("Figure 2: scheduling a soft real-time kernel (K3)\n");
    std::printf("==================================================\n\n");

    auto [fcfs_spans, fcfs_lat] = runScenario("fcfs", args.config());
    auto [npq_spans, npq_lat] = runScenario("npq", args.config());
    auto [ppq_spans, ppq_lat] = runScenario("ppq_excl", args.config());

    sim::SimTime horizon = 0;
    for (const auto *spans : {&fcfs_spans, &npq_spans, &ppq_spans}) {
        for (const auto &kv : *spans)
            horizon = std::max(horizon, kv.second.end);
    }

    printGantt("(a) FCFS (current GPUs):", fcfs_spans, horizon);
    printGantt("\n(b) nonpreemptive priority (NPQ):", npq_spans,
               horizon);
    printGantt("\n(c) preemptive priority (PPQ, context switch):",
               ppq_spans, horizon);

    std::printf("\nK3 latency:  FCFS %.0f us   NPQ %.0f us   "
                "PPQ %.0f us\n",
                sim::toMicroseconds(fcfs_lat),
                sim::toMicroseconds(npq_lat),
                sim::toMicroseconds(ppq_lat));
    std::printf("Preemption decouples K3's latency from the length of "
                "the running kernel.\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return harness::runMain(argc, argv, run);
}
