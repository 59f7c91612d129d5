#include "workload/process.hh"

#include "sim/logging.hh"

namespace gpump {
namespace workload {

Process::Process(sim::Simulation &sim, sim::ProcessId id,
                 const trace::BenchmarkSpec *spec, int priority,
                 HostCpu &cpu, gpu::GpuContext &ctx, gpu::Stream &stream,
                 gpu::CommandPool &pool, sim::SimTime launch_overhead)
    : sim_(&sim), id_(id), spec_(spec), priority_(priority), cpu_(&cpu),
      ctx_(&ctx), stream_(&stream), pool_(&pool),
      launchOverhead_(launch_overhead)
{
    GPUMP_ASSERT(spec != nullptr, "process without a benchmark");
    GPUMP_ASSERT(!spec->ops.empty(), "benchmark %s has an empty trace",
                 spec->name.c_str());

    // Compile the trace once: resolve kernel indices to profile
    // pointers and memcpy kinds to command kinds, so the replay loop
    // is a flat array walk with no per-replay re-derivation.
    ops_.reserve(spec->ops.size());
    for (const trace::TraceOp &op : spec->ops) {
        ReplayOp r;
        r.kind = op.kind;
        r.duration = op.duration;
        r.bytes = op.bytes;
        r.memcpyKind = op.kind == trace::TraceOp::Kind::MemcpyH2D
            ? gpu::Command::Kind::MemcpyH2D
            : gpu::Command::Kind::MemcpyD2H;
        r.profile = nullptr;
        if (op.kind == trace::TraceOp::Kind::KernelLaunch) {
            GPUMP_ASSERT(op.kernelIndex >= 0 &&
                             static_cast<std::size_t>(op.kernelIndex) <
                                 spec->kernels.size(),
                         "benchmark %s: kernel index %d out of range",
                         spec->name.c_str(), op.kernelIndex);
            r.profile =
                &spec->kernels[static_cast<std::size_t>(op.kernelIndex)];
        }
        ops_.push_back(r);
    }
}

void
Process::setArrivalSchedule(std::vector<sim::SimTime> arrivals,
                            int max_backlog)
{
    GPUMP_ASSERT(!running_ && completedRuns_ == 0,
                 "arrival schedule must be set before start()");
    GPUMP_ASSERT(max_backlog >= 0, "negative admission backlog");
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        GPUMP_ASSERT(arrivals[i] >= 0, "negative arrival time");
        GPUMP_ASSERT(i == 0 || arrivals[i] >= arrivals[i - 1],
                     "arrival schedule must be nondecreasing");
    }
    openLoop_ = true;
    arrivals_ = std::move(arrivals);
    maxBacklog_ = max_backlog;
    records_.reserve(arrivals_.size());
}

void
Process::start()
{
    if (openLoop_) {
        if (arrivals_.empty()) {
            maybeFinish();
            return;
        }
        sim_->events().schedule(arrivals_[0], [this] { onArrival(); });
        return;
    }
    runStart_ = sim_->now();
    release_ = runStart_;
    cursor_ = 0;
    step();
}

void
Process::onArrival()
{
    sim::SimTime release = arrivals_[nextArrival_++];
    // Arm the next arrival before acting on this one so the stream
    // keeps exactly one pending arrival event (O(streams) queue
    // pressure, not O(requests)).
    if (nextArrival_ < arrivals_.size()) {
        sim_->events().schedule(arrivals_[nextArrival_],
                                [this] { onArrival(); });
    }
    if (!running_) {
        running_ = true;
        release_ = release;
        runStart_ = sim_->now();
        cursor_ = 0;
        step();
        return;
    }
    if (maxBacklog_ > 0 &&
        backlog_.size() >= static_cast<std::size_t>(maxBacklog_)) {
        ++dropped_; // admission control: reject, don't queue
        maybeFinish();
        return;
    }
    backlog_.push_back(release);
}

void
Process::maybeFinish()
{
    if (static_cast<std::size_t>(completedRuns_) +
            static_cast<std::size_t>(dropped_) ==
        arrivals_.size()) {
        if (onFinished_) {
            auto cb = std::move(onFinished_);
            onFinished_ = nullptr; // fire exactly once
            cb();
        }
    }
}

void
Process::reserveRuns(int n)
{
    if (n > 0)
        records_.reserve(static_cast<std::size_t>(n));
}

double
Process::meanTurnaroundUs() const
{
    if (records_.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &r : records_)
        sum += sim::toMicroseconds(r.turnaround());
    return sum / static_cast<double>(records_.size());
}

double
Process::meanLatencyUs() const
{
    if (records_.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &r : records_)
        sum += sim::toMicroseconds(r.latency());
    return sum / static_cast<double>(records_.size());
}

void
Process::opDone()
{
    ++cursor_;
    step();
}

void
Process::step()
{
    using Kind = trace::TraceOp::Kind;

    // Outer loop = replays; the trace restarts immediately when it
    // ends (paper Section 4.1), so a run boundary must not grow the
    // stack the way the old tail-recursive replay did.
    for (;;) {
        const ReplayOp *ops = ops_.data();
        const std::size_t n = ops_.size();
        while (cursor_ < n) {
            const ReplayOp &op = ops[cursor_];
            switch (op.kind) {
              case Kind::CpuPhase: {
                // Stretch under oversubscription, sampled at phase
                // start (coarse-grained CPU model, Section 4.1).
                auto duration = static_cast<sim::SimTime>(
                    static_cast<double>(op.duration) *
                    cpu_->slowdownFactor());
                cpu_->beginPhase();
                sim_->events().scheduleIn(duration, [this] {
                    cpu_->endPhase();
                    opDone();
                });
                return;
              }
              case Kind::KernelLaunch: {
                stream_->enqueue(
                    pool_->makeKernel(ctx_->id(), priority_, op.profile));
                // The launch API call costs a little host time.
                sim_->events().scheduleIn(launchOverhead_,
                                          [this] { opDone(); });
                return;
              }
              case Kind::MemcpyH2D:
              case Kind::MemcpyD2H: {
                auto cmd = pool_->makeMemcpy(ctx_->id(), priority_,
                                             op.memcpyKind, op.bytes);
                cmd->onComplete = [this] { opDone(); };
                stream_->enqueue(std::move(cmd));
                return; // blocked until the copy finishes
              }
              case Kind::DeviceSync: {
                if (ctx_->idle()) {
                    ++cursor_;
                    break;
                }
                ctx_->waitIdle([this] { opDone(); });
                return;
              }
            }
        }

        // Trace exhausted: one execution completed.
        records_.push_back(RunRecord{runStart_, sim_->now(), release_});
        ++completedRuns_;
        if (onRunCompleted_)
            onRunCompleted_(*this);
        if (openLoop_) {
            // Open loop: pop the oldest backlogged request, or go
            // idle until the next arrival.
            if (backlog_.empty()) {
                running_ = false;
                maybeFinish();
                return;
            }
            release_ = backlog_.front();
            backlog_.pop_front();
            runStart_ = sim_->now();
            cursor_ = 0;
            continue;
        }
        // Closed loop: replay immediately (the next execution's first
        // CPU phase provides the natural inter-run gap).
        runStart_ = sim_->now();
        release_ = runStart_;
        cursor_ = 0;
    }
}

} // namespace workload
} // namespace gpump
