/**
 * @file
 * A simulated process replaying its application trace (Section 4.1).
 *
 * The process walks its BenchmarkSpec's TraceOps: CPU phases consume
 * host time (stretched under CPU oversubscription), kernel launches
 * and memcpys become GPU commands on the process's stream, blocking
 * memcpys and device synchronisations wait for completions.  When the
 * trace ends the execution is recorded and the process is replayed
 * immediately, matching the paper's "replay until every benchmark
 * completed at least 3 times" methodology.
 *
 * A process can instead be driven *open loop* by an arrival schedule
 * (setArrivalSchedule): each execution is released at a request's
 * arrival time, queues in a FIFO backlog while a predecessor is still
 * executing, and can be dropped by admission control under overload —
 * the cloud-serving request-stream model of the serve/ layer
 * (DESIGN.md §9).
 *
 * Replay is the simulator's per-event hot path (every event the GPU
 * side retires re-enters step() within a few calls), so the trace is
 * compiled once, at construction, into a flat array of ReplayOps —
 * kernel-profile pointers resolved, memcpy directions and command
 * kinds precomputed — and the replay state is two integers (the op
 * cursor and the completed-run count).  Commands come from the
 * device's CommandPool, so steady-state replay allocates nothing.
 */

#ifndef GPUMP_WORKLOAD_PROCESS_HH
#define GPUMP_WORKLOAD_PROCESS_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "gpu/command.hh"
#include "gpu/gpu_context.hh"
#include "gpu/stream.hh"
#include "sim/simulation.hh"
#include "sim/types.hh"
#include "trace/app_model.hh"
#include "workload/host_cpu.hh"

namespace gpump {
namespace workload {

/** Timing record of one completed application execution. */
struct RunRecord
{
    /** When the execution began stepping its trace. */
    sim::SimTime start;
    sim::SimTime end;
    /** When the execution was *requested*.  Closed-loop replays run
     *  back to back, so release == start; under an open-loop arrival
     *  schedule the release is the request's arrival time and
     *  start - release is the time it waited in the stream's backlog
     *  (see Process::setArrivalSchedule). */
    sim::SimTime release;

    /** Service time: trace start to trace end. */
    sim::SimTime turnaround() const { return end - start; }
    /** Response time: arrival to completion (backlog wait included).
     *  Equals turnaround() for closed-loop runs. */
    sim::SimTime latency() const { return end - release; }

    friend bool operator==(const RunRecord &a, const RunRecord &b)
    {
        return a.start == b.start && a.end == b.end &&
            a.release == b.release;
    }
};

/** One process of the multiprogrammed workload. */
class Process
{
  public:
    /**
     * @param sim      simulation context.
     * @param id       process id (also used in stats names).
     * @param spec     the benchmark this process runs.
     * @param priority process priority (priority schedulers).
     * @param cpu      host CPU (phase accounting).
     * @param ctx      this process's GPU context.
     * @param stream   this process's stream.
     * @param pool     command pool (recycled command allocations).
     * @param launch_overhead CPU cost of a kernel-launch API call.
     */
    Process(sim::Simulation &sim, sim::ProcessId id,
            const trace::BenchmarkSpec *spec, int priority, HostCpu &cpu,
            gpu::GpuContext &ctx, gpu::Stream &stream,
            gpu::CommandPool &pool, sim::SimTime launch_overhead);

    sim::ProcessId id() const { return id_; }
    const trace::BenchmarkSpec &spec() const { return *spec_; }
    int priority() const { return priority_; }
    gpu::GpuContext &context() { return *ctx_; }

    /**
     * Switch this process to an open-loop request stream.
     *
     * Instead of replaying back to back, one execution is *released*
     * at each of @p arrivals (absolute simulated times, nondecreasing):
     * an arrival at an idle process starts executing immediately;
     * arrivals during an execution queue in a FIFO backlog and start
     * when the predecessor finishes.  With @p max_backlog > 0 an
     * arrival finding that many requests already queued is dropped
     * (admission control under overload) and only counted.  The
     * process is finished when every arrival has either completed or
     * been dropped; it then fires the onFinished callback instead of
     * replaying.  Must be called before start().
     */
    void setArrivalSchedule(std::vector<sim::SimTime> arrivals,
                            int max_backlog = 0);

    /** True when an arrival schedule drives this process. */
    bool openLoop() const { return openLoop_; }

    /** Requests rejected by admission control (open loop only). */
    std::int64_t droppedRequests() const { return dropped_; }

    /** Invoked once, when an open-loop process has handled its whole
     *  arrival schedule (every request completed or dropped). */
    void setOnFinished(std::function<void()> cb)
    {
        onFinished_ = std::move(cb);
    }

    /** Begin executing: the first run starts now, or — under an
     *  arrival schedule — the first request is armed at its arrival
     *  time (an empty schedule finishes immediately). */
    void start();

    /** Completed executions so far. */
    int completedRuns() const { return completedRuns_; }

    /** Records of all completed executions. */
    const std::vector<RunRecord> &records() const { return records_; }

    /** Mean turnaround over completed executions (microseconds). */
    double meanTurnaroundUs() const;

    /** Mean response time (arrival to completion) over completed
     *  executions, microseconds.  Equals meanTurnaroundUs() for
     *  closed-loop processes. */
    double meanLatencyUs() const;

    /** Hint the expected execution count (reserves the record log so
     *  steady-state replay never regrows it). */
    void reserveRuns(int n);

    /** Invoked after each completed execution. */
    void setOnRunCompleted(std::function<void(Process &)> cb)
    {
        onRunCompleted_ = std::move(cb);
    }

  private:
    /** One precompiled trace operation (flat replay program). */
    struct ReplayOp
    {
        trace::TraceOp::Kind kind;
        /** CpuPhase: host time consumed (before contention stretch). */
        sim::SimTime duration;
        /** Memcpy*: payload size and command kind. */
        std::int64_t bytes;
        gpu::Command::Kind memcpyKind;
        /** KernelLaunch: resolved kernel profile. */
        const trace::KernelProfile *profile;
    };

    void step();
    void opDone();
    /** Deliver arrival arrivals_[nextArrival_] (open loop). */
    void onArrival();
    /** Fire onFinished_ when the whole schedule has been handled. */
    void maybeFinish();

    sim::Simulation *sim_;
    sim::ProcessId id_;
    const trace::BenchmarkSpec *spec_;
    int priority_;
    HostCpu *cpu_;
    gpu::GpuContext *ctx_;
    gpu::Stream *stream_;
    gpu::CommandPool *pool_;
    sim::SimTime launchOverhead_;

    /** The compiled trace; replayed cursor_ = 0..ops_.size() per run. */
    std::vector<ReplayOp> ops_;
    std::size_t cursor_ = 0;
    int completedRuns_ = 0;
    sim::SimTime runStart_ = 0;
    /** Release (arrival) time of the execution in progress; equals
     *  runStart_ in closed-loop mode. */
    sim::SimTime release_ = 0;
    std::vector<RunRecord> records_;
    std::function<void(Process &)> onRunCompleted_;

    /** @name Open-loop request stream state (setArrivalSchedule) @{ */
    bool openLoop_ = false;
    bool running_ = false;
    std::vector<sim::SimTime> arrivals_;
    std::size_t nextArrival_ = 0;
    int maxBacklog_ = 0;
    /** Release times of admitted-but-waiting requests, FIFO. */
    std::deque<sim::SimTime> backlog_;
    std::int64_t dropped_ = 0;
    std::function<void()> onFinished_;
    /** @} */
};

} // namespace workload
} // namespace gpump

#endif // GPUMP_WORKLOAD_PROCESS_HH
