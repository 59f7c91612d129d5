/**
 * Full-stack integration tests: multiprogrammed workloads end to end,
 * reproducing the paper's qualitative claims on small configurations.
 */

#include <gtest/gtest.h>

#include "metrics/metrics.hh"
#include "sim/logging.hh"
#include "tests/test_util.hh"
#include "workload/system.hh"

using namespace gpump;
using namespace gpump::workload;

namespace {

SystemResult
runSpec(SystemSpec spec, sim::Config cfg = sim::Config())
{
    System system(spec, cfg);
    return system.run(sim::seconds(60.0));
}

double
isolatedUs(const std::string &bench)
{
    SystemSpec spec;
    spec.benchmarks = {bench};
    spec.minReplays = 3;
    return runSpec(spec).meanTurnaroundUs[0];
}

} // namespace

TEST(SystemIntegration, TwoProcessFcfsWorkloadCompletes)
{
    SystemSpec spec;
    spec.benchmarks = {"sgemm", "spmv"};
    spec.minReplays = 3;
    auto result = runSpec(spec);
    EXPECT_GE(result.runs[0].size(), 3u);
    EXPECT_GE(result.runs[1].size(), 3u);
    EXPECT_EQ(result.preemptions, 0u);
}

TEST(SystemIntegration, EveryPolicyMechanismComboRuns)
{
    for (const char *policy :
         {"fcfs", "npq", "ppq_excl", "ppq_shared", "dss"}) {
        for (const char *mech : {"context_switch", "draining"}) {
            SystemSpec spec;
            spec.benchmarks = {"sgemm", "histo", "spmv"};
            spec.priorities = {1, 0, 0};
            spec.policy = policy;
            spec.mechanism = mech;
            spec.minReplays = 2;
            auto result = runSpec(spec);
            for (const auto &runs : result.runs)
                EXPECT_GE(runs.size(), 2u) << policy << "/" << mech;
        }
    }
}

TEST(SystemIntegration, SlowdownsAreAtLeastOne)
{
    SystemSpec spec;
    spec.benchmarks = {"sgemm", "mri-q", "spmv", "histo"};
    spec.minReplays = 3;
    auto result = runSpec(spec);
    for (std::size_t i = 0; i < spec.benchmarks.size(); ++i) {
        double ntt = result.meanTurnaroundUs[i] /
            isolatedUs(spec.benchmarks[i]);
        EXPECT_GT(ntt, 0.99)
            << spec.benchmarks[i]
            << " ran faster multiprogrammed than alone";
    }
}

TEST(SystemIntegration, PpqCutsHighPriorityTurnaround)
{
    // The Figure 5 effect on one workload: prioritizing a short app
    // against long ones, PPQ < NPQ < FCFS turnaround.
    SystemSpec spec;
    spec.benchmarks = {"sgemm", "lbm", "stencil", "mri-gridding"};
    spec.priorities = {1, 0, 0, 0};
    spec.minReplays = 3;

    spec.policy = "fcfs";
    double fcfs = runSpec(spec).meanTurnaroundUs[0];
    spec.policy = "npq";
    spec.transferPolicy = "priority";
    double npq = runSpec(spec).meanTurnaroundUs[0];
    spec.policy = "ppq_excl";
    double ppq = runSpec(spec).meanTurnaroundUs[0];

    EXPECT_LT(npq, fcfs) << "priority reordering must help";
    EXPECT_LT(ppq, npq * 1.001) << "preemption must help at least as "
                                   "much as reordering";
    EXPECT_LT(ppq, fcfs * 0.55)
        << "preemptive prioritization should cut turnaround strongly";
}

TEST(SystemIntegration, DssImprovesFairnessOverFcfs)
{
    SystemSpec spec;
    spec.benchmarks = {"sgemm", "spmv", "lbm", "stencil"};
    spec.minReplays = 3;

    std::vector<double> iso;
    for (const auto &b : spec.benchmarks)
        iso.push_back(isolatedUs(b));

    spec.policy = "fcfs";
    auto fcfs = runSpec(spec);
    spec.policy = "dss";
    auto dss = runSpec(spec);

    auto m_fcfs = metrics::computeMetrics(iso, fcfs.meanTurnaroundUs);
    auto m_dss = metrics::computeMetrics(iso, dss.meanTurnaroundUs);

    EXPECT_GT(m_dss.fairness, m_fcfs.fairness)
        << "equal spatial sharing must improve fairness";
    EXPECT_LT(m_dss.antt, m_fcfs.antt)
        << "short apps' waiting time dominates ANTT here";
    EXPECT_GT(dss.preemptions, 0u);
}

TEST(SystemIntegration, DssThroughputCostIsBounded)
{
    SystemSpec spec;
    spec.benchmarks = {"histo", "cutcp", "tpacf", "sad"};
    spec.minReplays = 2;

    std::vector<double> iso;
    for (const auto &b : spec.benchmarks)
        iso.push_back(isolatedUs(b));

    spec.policy = "fcfs";
    auto m_fcfs = metrics::computeMetrics(
        iso, runSpec(spec).meanTurnaroundUs);
    spec.policy = "dss";
    auto m_dss = metrics::computeMetrics(
        iso, runSpec(spec).meanTurnaroundUs);

    // Paper Figure 7c: STP degradation exists but stays moderate.
    EXPECT_LT(m_fcfs.stp / m_dss.stp, 2.0);
}

TEST(SystemIntegration, DeterministicAcrossRuns)
{
    SystemSpec spec;
    spec.benchmarks = {"sgemm", "histo", "spmv"};
    spec.policy = "dss";
    spec.seed = 12345;
    spec.minReplays = 2;
    auto a = runSpec(spec);
    auto b = runSpec(spec);
    EXPECT_EQ(a.endTime, b.endTime);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.meanTurnaroundUs, b.meanTurnaroundUs);
}

TEST(SystemIntegration, TbVariabilityKeepsWorking)
{
    sim::Config cfg;
    cfg.set("gpu.tb_time_cv", 0.2);
    SystemSpec spec;
    spec.benchmarks = {"sgemm", "spmv"};
    spec.policy = "dss";
    spec.minReplays = 2;
    auto result = runSpec(spec, cfg);
    EXPECT_GE(result.runs[0].size(), 2u);
    EXPECT_GE(result.runs[1].size(), 2u);
}

TEST(SystemIntegration, EightProcessWorkloadRuns)
{
    SystemSpec spec;
    spec.benchmarks = {"sgemm", "spmv",   "mri-q", "histo",
                       "cutcp", "stencil", "lbm",  "sad"};
    spec.policy = "dss";
    spec.mechanism = "draining";
    spec.minReplays = 2;
    auto result = runSpec(spec);
    for (const auto &runs : result.runs)
        EXPECT_GE(runs.size(), 2u);
    EXPECT_GT(result.preemptions, 0u);
}

TEST(SystemIntegration, KeyNothingReadsOrClaimsIsFatal)
{
    // A misspelled machine key must not run the default machine: once
    // assembled, a System rejects every key that no scheme claims and
    // assembly never read, naming the nearest key it did read.  The
    // test rig is the same Device, so it rejects the key too.
    SystemSpec spec;
    spec.benchmarks = {"mri-q"};
    sim::Config typo;
    typo.set("gpu.num_smz", std::int64_t{208});
    const std::string from_system =
        test::fatalMessageOf([&] { System system(spec, typo); });
    const std::string from_rig = test::fatalMessageOf(
        [&] { test::DeviceRig rig("fcfs", "context_switch", typo); });
    for (const std::string &msg : {from_system, from_rig}) {
        EXPECT_NE(msg.find("'gpu.num_smz'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("did you mean 'gpu.num_sms'"),
                  std::string::npos)
            << msg;
    }

    // The deleted contention switch is no longer read, so it fails.
    sim::Config gone;
    gone.set("cpu.model_contention", false);
    std::string msg =
        test::fatalMessageOf([&] { System system(spec, gone); });
    EXPECT_NE(msg.find("'cpu.model_contention'"), std::string::npos)
        << msg;

    // Keys assembly reads pass, and so do keys a scheme claims, even
    // when another scheme is selected: the registry validates those.
    sim::Config fine;
    fine.set("gpu.num_sms", std::int64_t{26});
    fine.set("cpu.cores", std::int64_t{8});
    fine.set("engine.preempted_first", false);
    fine.set("dss.tokens_per_kernel", std::int64_t{3});
    spec.policy = "fcfs";
    EXPECT_NO_THROW(System(spec, fine));
}
