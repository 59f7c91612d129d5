/** Tests of the process trace-replay machinery and the host CPU. */

#include <gtest/gtest.h>

#include <map>

#include "sim/logging.hh"
#include "trace/parboil.hh"
#include "workload/host_cpu.hh"
#include "workload/system.hh"

using namespace gpump;
using namespace gpump::workload;

TEST(HostCpu, Table2Defaults)
{
    CpuParams p;
    EXPECT_EQ(p.cores, 4);
    EXPECT_EQ(p.threadsPerCore, 2);
    EXPECT_EQ(p.hwThreads(), 8);
    EXPECT_DOUBLE_EQ(p.clockGhz, 2.8);
}

TEST(HostCpu, NonPositiveParamsAreFatal)
{
    // cpu.clock_ghz reaches no simulation, only bench_table2_sim_params,
    // which would print "0.0 GHz"; each key is named.
    for (const char *kv : {"cpu.clock_ghz=0", "cpu.clock_ghz=-2.8",
                           "cpu.cores=0", "cpu.threads_per_core=-1"}) {
        sim::Config bad;
        bad.parse(kv);
        try {
            CpuParams::fromConfig(bad);
            ADD_FAILURE() << kv << " was accepted";
        } catch (const sim::FatalError &e) {
            std::string key(kv, std::string(kv).find('='));
            EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
                << e.what();
        }
    }
}

TEST(HostCpu, NoSlowdownUpToHwThreads)
{
    sim::Simulation sim;
    HostCpu cpu(sim, CpuParams{});
    for (int i = 0; i < 8; ++i)
        cpu.beginPhase();
    EXPECT_DOUBLE_EQ(cpu.slowdownFactor(), 1.0);
    cpu.beginPhase(); // ninth thread oversubscribes
    EXPECT_DOUBLE_EQ(cpu.slowdownFactor(), 9.0 / 8.0);
    for (int i = 0; i < 9; ++i)
        cpu.endPhase();
    EXPECT_THROW(cpu.endPhase(), sim::PanicError);
}

TEST(Process, SingleRunOfEveryBenchmarkCompletes)
{
    for (const auto &bench : trace::parboilSuite()) {
        SystemSpec spec;
        spec.benchmarks = {bench.name};
        spec.minReplays = 1;
        System system(spec);
        auto result = system.run(sim::seconds(10.0));
        ASSERT_EQ(result.runs.size(), 1u) << bench.name;
        EXPECT_EQ(result.runs[0].size(), 1u) << bench.name;
        EXPECT_GT(result.meanTurnaroundUs[0], 0.0) << bench.name;
    }
}

TEST(Process, ReplaysAccumulateRecords)
{
    SystemSpec spec;
    spec.benchmarks = {"sgemm"};
    spec.minReplays = 3;
    System system(spec);
    auto result = system.run(sim::seconds(10.0));
    EXPECT_EQ(result.runs[0].size(), 3u);
    // Replays of an isolated run are identical to each other (the
    // machine is deterministic and unloaded).  The first run may be
    // marginally longer: it pays the one-time SM context load.
    ASSERT_GE(result.runs[0].size(), 2u);
    auto t1 = result.runs[0][1].turnaround();
    EXPECT_GE(result.runs[0][0].turnaround(), t1);
    for (std::size_t i = 1; i < result.runs[0].size(); ++i)
        EXPECT_EQ(result.runs[0][i].turnaround(), t1);
}

TEST(Process, RunRecordsAreContiguous)
{
    SystemSpec spec;
    spec.benchmarks = {"spmv"};
    spec.minReplays = 3;
    System system(spec);
    auto result = system.run(sim::seconds(10.0));
    const auto &runs = result.runs[0];
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(runs[0].start, 0);
    for (std::size_t i = 1; i < runs.size(); ++i)
        EXPECT_EQ(runs[i].start, runs[i - 1].end)
            << "replay must start when the previous run ends";
}

TEST(Process, IsolatedTimesLandInPaperClasses)
{
    // Class 2 grouping (Table 1): in simulated terms, SHORT apps are
    // the three below ~2 ms, LONG apps above ~8 ms (see DESIGN.md).
    std::map<std::string, double> times;
    for (const auto &bench : trace::parboilSuite()) {
        SystemSpec spec;
        spec.benchmarks = {bench.name};
        spec.minReplays = 1;
        System system(spec);
        times[bench.name] =
            system.run(sim::seconds(10.0)).meanTurnaroundUs[0];
    }
    double shortest_medium = 1e18, longest_short = 0;
    double shortest_long = 1e18, longest_medium = 0;
    for (const auto &bench : trace::parboilSuite()) {
        double t = times[bench.name];
        switch (bench.appClass) {
          case trace::DurationClass::Short:
            longest_short = std::max(longest_short, t);
            break;
          case trace::DurationClass::Medium:
            shortest_medium = std::min(shortest_medium, t);
            longest_medium = std::max(longest_medium, t);
            break;
          case trace::DurationClass::Long:
            shortest_long = std::min(shortest_long, t);
            break;
        }
    }
    EXPECT_LT(longest_short, shortest_medium)
        << "SHORT apps must be shorter than every MEDIUM app";
    EXPECT_LT(longest_medium, shortest_long)
        << "MEDIUM apps must be shorter than every LONG app";
}

TEST(Process, CommandPoolRecyclesAcrossReplays)
{
    // The replay hot path must not allocate per command in steady
    // state: the pool's block count plateaus at the peak number of
    // concurrently live commands, independent of how many replays
    // (and therefore how many commands) the run retires.
    auto blocks_for = [](int replays) {
        SystemSpec spec;
        spec.benchmarks = {"sgemm"};
        spec.minReplays = replays;
        System system(spec);
        system.run(sim::seconds(20.0));
        // (Commands of the replay the stop condition interrupted are
        // still live, so free < allocated here; the plateau is the
        // meaningful number.)
        return system.device().pool.blocksAllocated();
    };
    std::size_t two = blocks_for(2);
    std::size_t eight = blocks_for(8);
    EXPECT_GT(two, 0u);
    EXPECT_EQ(two, eight)
        << "4x the replays must not grow the command pool";
}

TEST(Process, SystemValidatesSpec)
{
    SystemSpec empty;
    EXPECT_THROW(System{empty}, sim::FatalError);

    SystemSpec mismatch;
    mismatch.benchmarks = {"sgemm", "spmv"};
    mismatch.priorities = {1};
    EXPECT_THROW(System{mismatch}, sim::FatalError);

    SystemSpec bad_replays;
    bad_replays.benchmarks = {"sgemm"};
    bad_replays.minReplays = 0;
    EXPECT_THROW(System{bad_replays}, sim::FatalError);

    SystemSpec unknown;
    unknown.benchmarks = {"doom"};
    EXPECT_THROW(System{unknown}, sim::FatalError);
}

TEST(Process, HorizonViolationIsFatal)
{
    SystemSpec spec;
    spec.benchmarks = {"lbm"};
    spec.minReplays = 1;
    System system(spec);
    EXPECT_THROW(system.run(sim::microseconds(10.0)), sim::FatalError);
}
