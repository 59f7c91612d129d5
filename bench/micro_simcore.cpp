/**
 * @file
 * google-benchmark micro-benchmarks of the simulator core: event
 * queue throughput, RNG sampling, occupancy/context derivation,
 * metric computation, the DSS partition step and a full end-to-end
 * isolated-application simulation (events per second).
 */

#include <benchmark/benchmark.h>

#include "gpu/gpu_config.hh"
#include "gpu/kernel_exec.hh"
#include "gpu/sm.hh"
#include "harness/suite.hh"
#include "metrics/metrics.hh"
#include "predict/predictor.hh"
#include "sim/event.hh"
#include "sim/random.hh"
#include "trace/parboil.hh"
#include "workload/system.hh"

using namespace gpump;

namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        sim::EventQueue q;
        std::uint64_t sink = 0;
        for (std::size_t i = 0; i < n; ++i) {
            q.schedule(static_cast<sim::SimTime>((i * 7919) % 10000),
                       [&sink] { ++sink; });
        }
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                            state.iterations());
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

void
BM_EventQueueCancelHalf(benchmark::State &state)
{
    const std::size_t n = 10000;
    for (auto _ : state) {
        sim::EventQueue q;
        std::vector<sim::EventQueue::Handle> handles;
        handles.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            handles.push_back(q.schedule(
                static_cast<sim::SimTime>(i), [] {}));
        }
        for (std::size_t i = 0; i < n; i += 2)
            handles[i].cancel();
        q.run();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                            state.iterations());
}
BENCHMARK(BM_EventQueueCancelHalf);

void
BM_EventQueueRearm(benchmark::State &state)
{
    // The simulator's steady state: one completion event per SM of the
    // Table 2 GPU, each re-arming itself from its own callback with a
    // reserved sequence, as a TB completion re-arms its SM's timeline.
    // BM_EventQueueScheduleRun schedules only from outside callbacks.
    struct Rearm
    {
        sim::EventQueue *q;
        std::uint64_t *lcg;
        void operator()() const
        {
            *lcg = *lcg * 6364136223846793005ull + 1442695040888963407ull;
            auto delay = static_cast<sim::SimTime>(1 + (*lcg >> 54));
            q->scheduleWithSeq(q->now() + delay, q->reserveSeq(), *this,
                               sim::prioCompletion);
        }
    };
    sim::EventQueue q;
    std::uint64_t lcg = 42;
    for (int sm = 0; sm < gpu::GpuParams().numSms; ++sm)
        Rearm{&q, &lcg}();
    for (auto _ : state)
        q.step();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueRearm);

void
BM_RngLognormal(benchmark::State &state)
{
    // One fresh thread-block duration, drawn from the per-kernel
    // distribution the issue loop solves once per launch.
    sim::Rng rng(42);
    const auto tb_us = sim::Rng::Lognormal::fromMeanCv(10.0, 0.3);
    double sink = 0;
    for (auto _ : state)
        sink += rng.lognormal(tb_us);
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngLognormal);

void
BM_OccupancyAllKernels(benchmark::State &state)
{
    gpu::GpuParams params;
    auto profiles = trace::allKernelProfiles();
    for (auto _ : state) {
        int sink = 0;
        for (const auto *k : profiles)
            sink += gpu::maxTbsPerSm(*k, params);
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(profiles.size()) *
        state.iterations());
}
BENCHMARK(BM_OccupancyAllKernels);

void
BM_MetricsCompute(benchmark::State &state)
{
    std::vector<double> iso(8), multi(8);
    for (int i = 0; i < 8; ++i) {
        iso[static_cast<std::size_t>(i)] = 100.0 + i;
        multi[static_cast<std::size_t>(i)] = 250.0 + 13 * i;
    }
    for (auto _ : state) {
        auto m = metrics::computeMetrics(iso, multi);
        benchmark::DoNotOptimize(m.antt);
    }
}
BENCHMARK(BM_MetricsCompute);

void
BM_PredictorUpdate(benchmark::State &state)
{
    // The predictor's tbCompleted hook rides the TB-completion fast
    // path (the hottest event in the simulator); this pins the cost
    // of one model update plus the drain-estimate query pred_adaptive
    // makes per decision.
    const trace::KernelProfile *prof =
        trace::allKernelProfiles().front();
    gpu::GpuParams params;
    gpu::CommandPtr cmd = gpu::Command::makeKernel(0, 0, prof);
    gpu::KernelExec k(0, cmd, params, 64);
    gpu::Sm sm(0);
    sm.kernel = &k;
    sm.insertResident({0, 0, sim::microseconds(prof->timePerTbUs), 0});
    predict::RuntimePredictor pred(0.25);
    const sim::SimTime tb = sim::microseconds(prof->timePerTbUs);
    sim::SimTime now = 0;
    double sink = 0;
    for (auto _ : state) {
        now += tb;
        pred.tbCompleted(sm, k, now - tb, now);
        sink += pred.estimatedDrainTimeUs(sm, now);
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredictorUpdate);

void
BM_IsolatedRun(benchmark::State &state)
{
    // End-to-end single-application simulation; reports simulator
    // throughput in events/second.
    std::uint64_t events = 0;
    for (auto _ : state) {
        workload::SystemSpec spec;
        spec.benchmarks = {"histo"};
        spec.minReplays = 1;
        workload::System system(spec);
        auto result = system.run(sim::seconds(10.0));
        events += result.eventsExecuted;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_IsolatedRun)->Unit(benchmark::kMillisecond);

void
BM_MultiprogrammedDssRun(benchmark::State &state)
{
    std::uint64_t events = 0;
    for (auto _ : state) {
        workload::SystemSpec spec;
        spec.benchmarks = {"sgemm", "histo", "spmv", "mri-q"};
        spec.policy = "dss";
        spec.minReplays = 1;
        workload::System system(spec);
        auto result = system.run(sim::seconds(30.0));
        events += result.eventsExecuted;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_MultiprogrammedDssRun)->Unit(benchmark::kMillisecond);

void
BM_ContendedSwitch(benchmark::State &state)
{
    // The same multiprogrammed mix with context save/restore riding
    // the transfer engine (gmem.contended_switch): exercises the
    // driver-originated transfer path, restore credit and SM parking.
    std::uint64_t events = 0;
    for (auto _ : state) {
        workload::SystemSpec spec;
        spec.benchmarks = {"sgemm", "histo", "spmv", "mri-q"};
        spec.policy = "dss";
        spec.minReplays = 1;
        sim::Config cfg;
        cfg.set("gmem.contended_switch", true);
        workload::System system(spec, cfg);
        auto result = system.run(sim::seconds(30.0));
        events += result.eventsExecuted;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_ContendedSwitch)->Unit(benchmark::kMillisecond);

/** A replay-heavy synthetic application: many short trace ops (CPU
 *  phases, async copies, small kernel launches) per execution, so the
 *  per-op replay machinery — command creation, stream submission,
 *  dispatcher hand-off, replay bookkeeping — dominates over kernel
 *  simulation.  This is the workload-layer hot path in isolation. */
const trace::BenchmarkSpec &
replayHeavySpec()
{
    static const trace::BenchmarkSpec spec = [] {
        trace::BenchmarkSpec s;
        s.name = "replaybench";
        s.dataset = "synthetic";
        trace::KernelProfile k;
        k.benchmark = s.name;
        k.kernel = "tick";
        k.launches = 16;
        // A tiny grid: the point of this benchmark is the replay
        // machinery around each launch, not thread-block simulation
        // (BM_WorkloadIssueLoop and BM_MultiprogrammedDssRun cover
        // the TB-heavy mix).
        k.numThreadBlocks = 2;
        k.timePerTbUs = 4.0;
        k.regsPerTb = 2048;
        k.threadsPerTb = 128;
        s.kernels.push_back(k);
        using Kind = trace::TraceOp::Kind;
        for (int i = 0; i < k.launches; ++i) {
            s.ops.push_back(
                {Kind::CpuPhase, sim::microseconds(3.0), 0, -1, true});
            s.ops.push_back(
                {Kind::MemcpyH2D, 0, 64 * 1024, -1, false});
            s.ops.push_back({Kind::KernelLaunch, 0, 0, 0, true});
        }
        s.ops.push_back({Kind::DeviceSync, 0, 0, -1, true});
        s.ops.push_back({Kind::MemcpyD2H, 0, 256 * 1024, -1, true});
        s.validate();
        return s;
    }();
    return spec;
}

void
BM_ProcessReplay(benchmark::State &state)
{
    // Four processes replaying the synthetic trace 20 times each;
    // reports workload-layer throughput in events/second.
    const trace::BenchmarkSpec &app = replayHeavySpec();
    std::uint64_t events = 0;
    for (auto _ : state) {
        workload::SystemSpec spec;
        spec.customSpecs = {&app, &app, &app, &app};
        spec.minReplays = 20;
        workload::System system(spec);
        auto result = system.run(sim::seconds(60.0));
        events += result.eventsExecuted;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_ProcessReplay)->Unit(benchmark::kMillisecond);

void
BM_WorkloadIssueLoop(benchmark::State &state)
{
    // The figure benches' configuration (lognormal TB durations,
    // cv = 0.25): every fresh thread block issued draws from the RNG,
    // so this measures the batched-draw issue loop end to end.
    std::uint64_t events = 0;
    for (auto _ : state) {
        sim::Config cfg;
        cfg.set("gpu.tb_time_cv", 0.25);
        workload::SystemSpec spec;
        spec.benchmarks = {"sgemm", "histo", "spmv", "mri-q"};
        spec.policy = "dss";
        spec.minReplays = 1;
        workload::System system(spec, cfg);
        auto result = system.run(sim::seconds(30.0));
        events += result.eventsExecuted;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_WorkloadIssueLoop)->Unit(benchmark::kMillisecond);

void
BM_RunnerBatch(benchmark::State &state)
{
    // A small Suite grid through the batch Runner; the argument is
    // the job count: 1 runs in process, N forks N workers, so 1 vs N
    // shows the forked speedup on a multi-core host.  The workers'
    // time is invisible to this process's CPU clock, hence real
    // time.
    const int jobs = static_cast<int>(state.range(0));
    for (auto _ : state) {
        harness::Suite suite("micro");
        suite.sizes({2})
            .uniform(4, 20140614)
            .minReplays(1)
            .scheme("FCFS", {"fcfs", "context_switch", "fcfs"})
            .scheme("DSS-CS", {"dss", "context_switch", "fcfs"});
        harness::Batch batch = suite.build();
        harness::Runner runner(sim::Config(), jobs);
        auto results = runner.run(batch.requests);
        benchmark::DoNotOptimize(results.front().metrics.antt);
    }
}
BENCHMARK(BM_RunnerBatch)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()->Unit(
    benchmark::kMillisecond);

} // namespace
