#include "workload/system.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "trace/parboil.hh"

namespace gpump {
namespace workload {

namespace {

/**
 * Reject every key of @p cfg that no scheme claims and assembly never
 * read.  Claimed keys were validated against their scheme's declared
 * tunables when the scheme was made; every other reader (the
 * *Params::fromConfig calls, the framework and System itself) runs
 * unconditionally during assembly, so a key none of them read is a
 * typo that would otherwise run the default machine.
 */
void
rejectUnreadKeys(const sim::Config &cfg)
{
    const std::vector<std::string> read = cfg.readKeys();
    for (const std::string &key : cfg.keys()) {
        if (core::policyRegistry().claimant(key) != nullptr ||
            core::mechanismRegistry().claimant(key) != nullptr ||
            std::binary_search(read.begin(), read.end(), key)) {
            continue;
        }
        std::string near = core::nearestOf(key, read);
        if (!near.empty()) {
            sim::fatal("unknown config key '%s'; did you mean '%s'?",
                       key.c_str(), near.c_str());
        }
        sim::fatal("unknown config key '%s': no scheme claims it and "
                   "the simulator reads no such key",
                   key.c_str());
    }
}

} // namespace

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

    sim_ = std::make_unique<sim::Simulation>(spec_.seed, overrides);
    const sim::Config &cfg = sim_->config();

    gpuParams_ = gpu::GpuParams::fromConfig(cfg);
    gmem_ = std::make_unique<memory::GpuMemory>(
        sim_->stats(), memory::GpuMemoryParams::fromConfig(cfg));
    pcie_ = std::make_unique<memory::PcieBus>(
        sim_->stats(), memory::PcieParams::fromConfig(cfg));

    transferEngine_ = std::make_unique<gpu::TransferEngine>(
        *sim_, *pcie_,
        gpu::TransferEngine::policyFromName(spec_.transferPolicy));
    dispatcher_ = std::make_unique<gpu::Dispatcher>(*sim_,
                                                    *transferEngine_);
    transferEngine_->setCompletionNotifier(
        [this](gpu::CommandQueue *q) {
            dispatcher_->onCommandCompleted(q);
        });

    framework_ = std::make_unique<core::SchedulingFramework>(
        *sim_, gpuParams_, *gmem_, *dispatcher_);
    framework_->setTransferEngine(transferEngine_.get());

    framework_->setMechanism(core::makeMechanism(spec_.mechanism, cfg));

    // Device-memory residency: swap transfers ride the same transfer
    // engine as workload copies; the engine-side hooks (pinning, SMs
    // forgetting an evicted context) route back into the framework.
    residency_ = std::make_unique<memory::ResidencyManager>(
        sim_->stats(), *gmem_,
        [this](sim::ContextId ctx, int priority, std::int64_t bytes,
               bool to_device, std::function<void()> done) {
            framework_->submitContextTransfer(
                ctx, priority, bytes,
                to_device ? gpu::Command::Kind::MemcpyH2D
                          : gpu::Command::Kind::MemcpyD2H,
                std::move(done));
        });
    residency_->setPinQuery([this](sim::ContextId ctx) {
        return framework_->contextPinned(ctx);
    });
    residency_->setRemapNotifier([this](sim::ContextId ctx) {
        framework_->onContextRemapped(ctx);
    });
    framework_->setResidency(residency_.get());

    // Let the selected policy fill contextual defaults now that the
    // machine and workload sizes are known (e.g. DSS's equal-share
    // token budget, Section 4.4: tc = floor(NSMs / Nprocs) plus the
    // remainder as bonus tokens).
    const core::PolicyRegistry::Descriptor &policy_desc =
        core::policyRegistry().at(spec_.policy);
    sim::Config policy_cfg = cfg;
    if (policy_desc.assemblyDefaults) {
        policy_desc.assemblyDefaults(policy_cfg, gpuParams_.numSms,
                                     static_cast<int>(apps.size()));
    }
    framework_->setPolicy(core::makePolicy(spec_.policy, policy_cfg));

    hostCpu_ = std::make_unique<HostCpu>(*sim_,
                                         CpuParams::fromConfig(cfg));

    sim::SimTime launch_overhead = cfg.getMicroseconds(
        "cpu.kernel_launch_overhead_us", sim::microseconds(3.0));
    std::int64_t scratch_bytes =
        cfg.getInt("process.scratch_bytes", 32ll * 1024 * 1024);
    if (scratch_bytes < 0) {
        sim::fatal("process.scratch_bytes must be >= 0 (got %lld)",
                   static_cast<long long>(scratch_bytes));
    }

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
        residency_->registerContext(ctx->id(), priority, footprint);

        gpu::CommandQueue *queue = dispatcher_->createQueue(
            ctx->id(), gpuParams_.numHwQueues);
        auto stream = std::make_unique<gpu::Stream>(
            *sim_, *ctx, *dispatcher_, queue,
            gpuParams_.commandSubmitLatency);
        auto process = std::make_unique<Process>(
            *sim_, static_cast<sim::ProcessId>(i), &bench, priority,
            *hostCpu_, *ctx, *stream, cmdPool_, launch_overhead);
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
    rejectUnreadKeys(cfg);
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
        sim_->events().schedule(0, [proc] { proc->start(); });
    }

    while (!done_) {
        if (!sim_->events().step()) {
            sim::fatal("simulation deadlocked: event queue empty with "
                       "%d process(es) incomplete",
                       stillRunning_);
        }
        if (sim_->now() > limit) {
            sim::fatal("simulation exceeded its horizon (%lld ns) with "
                       "%d process(es) incomplete; a kernel may be "
                       "unpreemptible under the configured mechanism",
                       static_cast<long long>(limit), stillRunning_);
        }
    }

    SystemResult result;
    result.endTime = sim_->now();
    result.eventsExecuted = sim_->events().executed();
    result.kernelsCompleted = framework_->kernelsCompleted();
    result.preemptions = framework_->preemptions();
    result.contextBytesSaved = framework_->contextBytesSaved();
    result.maxPtbqDepth = framework_->maxPtbqDepth();
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
