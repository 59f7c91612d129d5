#include "workload/system.hh"

#include <utility>

#include "sim/logging.hh"
#include "trace/parboil.hh"

namespace gpump {
namespace workload {

System::System(const SystemSpec &spec, const sim::Config &overrides)
    : spec_(spec)
{
    // Resolve the per-process application specs up front.
    std::vector<const trace::BenchmarkSpec *> apps;
    if (!spec_.customSpecs.empty()) {
        if (!spec_.benchmarks.empty())
            sim::fatal("give either benchmark names or custom specs, "
                       "not both");
        for (const trace::BenchmarkSpec *s : spec_.customSpecs) {
            if (s == nullptr)
                sim::fatal("null custom benchmark spec");
            s->validate();
            apps.push_back(s);
        }
    } else {
        for (const auto &name : spec_.benchmarks)
            apps.push_back(&trace::findBenchmark(name));
    }
    if (apps.empty())
        sim::fatal("system with no processes");
    if (!spec_.priorities.empty() &&
        spec_.priorities.size() != apps.size()) {
        sim::fatal("priorities/processes size mismatch (%zu vs %zu)",
                   spec_.priorities.size(), apps.size());
    }
    if (spec_.minReplays < 1)
        sim::fatal("minReplays must be at least 1");
    if (!spec_.arrivalSchedules.empty() &&
        spec_.arrivalSchedules.size() != apps.size()) {
        sim::fatal("arrival-schedules/processes size mismatch "
                   "(%zu vs %zu)",
                   spec_.arrivalSchedules.size(), apps.size());
    }
    if (!spec_.admissionBacklogs.empty() &&
        spec_.admissionBacklogs.size() != apps.size()) {
        sim::fatal("admission-backlogs/processes size mismatch "
                   "(%zu vs %zu)",
                   spec_.admissionBacklogs.size(), apps.size());
    }
    if (spec_.arrivalSchedules.empty() &&
        !spec_.admissionBacklogs.empty()) {
        sim::fatal("admission backlogs require arrival schedules");
    }

    // The host's keys are read before the device takes the config
    // over: the device rejects every key nothing has read by then.
    sim::Config cfg = overrides;
    const CpuParams cpu = CpuParams::fromConfig(cfg);
    sim::SimTime launch_overhead = cfg.getMicroseconds(
        "cpu.kernel_launch_overhead_us", sim::microseconds(3.0));
    std::int64_t scratch_bytes =
        cfg.getInt("process.scratch_bytes", 32ll * 1024 * 1024);
    if (scratch_bytes < 0) {
        sim::fatal("process.scratch_bytes must be >= 0 (got %lld)",
                   static_cast<long long>(scratch_bytes));
    }

    device_ = std::make_unique<Device>(
        spec_.policy, spec_.mechanism, std::move(cfg), spec_.seed,
        gpu::TransferEngine::policyFromName(spec_.transferPolicy),
        static_cast<int>(apps.size()));
    Device &dev = *device_;
    hostCpu_ = std::make_unique<HostCpu>(dev.sim, cpu);

    for (std::size_t i = 0; i < apps.size(); ++i) {
        const trace::BenchmarkSpec &bench = *apps[i];
        int priority =
            spec_.priorities.empty() ? 0 : spec_.priorities[i];

        auto ctx = std::make_unique<gpu::GpuContext>(
            static_cast<sim::ContextId>(i),
            static_cast<sim::ProcessId>(i), priority);

        // The process's device footprint: inputs, outputs and scratch.
        // The residency manager admits it — resident immediately when
        // it fits next to the contexts already admitted (the common
        // case, exactly the old direct allocation), swapped out
        // otherwise; only a footprint too big for the device on its
        // own is fatal.
        std::int64_t footprint =
            bench.bytesH2D() + bench.bytesD2H() + scratch_bytes;
        gpu::CommandQueue *queue =
            dev.addContext(ctx->id(), priority, footprint);
        auto stream = std::make_unique<gpu::Stream>(
            dev.sim, *ctx, dev.dispatcher, queue,
            dev.params.commandSubmitLatency);
        auto process = std::make_unique<Process>(
            dev.sim, static_cast<sim::ProcessId>(i), &bench, priority,
            *hostCpu_, *ctx, *stream, dev.pool, launch_overhead);
        if (!spec_.arrivalSchedules.empty()) {
            int backlog = spec_.admissionBacklogs.empty()
                ? 0
                : spec_.admissionBacklogs[i];
            process->setArrivalSchedule(spec_.arrivalSchedules[i],
                                        backlog);
        } else {
            process->reserveRuns(spec_.minReplays);
        }

        contexts_.push_back(std::move(ctx));
        streams_.push_back(std::move(stream));
        processes_.push_back(std::move(process));
    }
}

SystemResult
System::run(sim::SimTime limit)
{
    stillRunning_ = numProcesses();
    done_ = numProcesses() == 0;

    for (auto &p : processes_) {
        Process *proc = p.get();
        if (proc->openLoop()) {
            // Open loop: a process is done when its whole arrival
            // schedule has been handled (completed or dropped).
            proc->setOnFinished([this] {
                if (--stillRunning_ == 0)
                    done_ = true;
            });
        } else {
            proc->setOnRunCompleted([this](Process &q) {
                if (q.completedRuns() == spec_.minReplays) {
                    if (--stillRunning_ == 0)
                        done_ = true;
                }
            });
        }
        // All processes start at t=0, co-scheduled (Section 4.1);
        // open-loop processes merely arm their first arrival.
        sim().events().schedule(0, [proc] { proc->start(); });
    }

    while (!done_) {
        if (!sim().events().step()) {
            sim::fatal("simulation deadlocked: event queue empty with "
                       "%d process(es) incomplete",
                       stillRunning_);
        }
        if (sim().now() > limit) {
            sim::fatal("simulation exceeded its horizon (%lld ns) with "
                       "%d process(es) incomplete; a kernel may be "
                       "unpreemptible under the configured mechanism",
                       static_cast<long long>(limit), stillRunning_);
        }
    }

    SystemResult result;
    const core::SchedulingFramework &fw = framework();
    result.endTime = sim().now();
    result.eventsExecuted = sim().events().executed();
    result.kernelsCompleted = fw.kernelsCompleted();
    result.preemptions = fw.preemptions();
    result.contextBytesSaved = fw.contextBytesSaved();
    result.maxPtbqDepth = fw.maxPtbqDepth();
    for (auto &p : processes_) {
        result.runs.push_back(p->records());
        result.meanTurnaroundUs.push_back(p->meanTurnaroundUs());
        result.meanLatencyUs.push_back(p->meanLatencyUs());
        result.droppedRequests.push_back(p->droppedRequests());
    }
    return result;
}

} // namespace workload
} // namespace gpump
