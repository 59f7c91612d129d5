/** Tests of the harness: argument parsing, reporting, scheme labels
 *  and single runs through the Runner. */

#include <gtest/gtest.h>

#include <sstream>

#include "bench/bench_util.hh"
#include "harness/args.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "sim/logging.hh"

using namespace gpump;
using namespace gpump::harness;

TEST(Args, SplitsFlagsAndConfig)
{
    const char *argv[] = {"prog", "--workloads=20", "--csv",
                          "gpu.num_sms=8", "dss.retarget=false"};
    Args args(5, const_cast<char **>(argv));
    EXPECT_EQ(args.flagInt("workloads", 5), 20);
    EXPECT_TRUE(args.hasFlag("csv"));
    EXPECT_EQ(args.flag("csv", ""), "true");
    EXPECT_FALSE(args.hasFlag("missing"));
    EXPECT_EQ(args.config().getInt("gpu.num_sms", 13), 8);
    EXPECT_FALSE(args.config().getBool("dss.retarget", true));
}

TEST(Args, MalformedTokenIsFatal)
{
    const char *argv[] = {"prog", "oops"};
    EXPECT_THROW(Args(2, const_cast<char **>(argv)), sim::FatalError);
}

TEST(Args, FlagTypeValidation)
{
    const char *argv[] = {"prog", "--n=abc"};
    Args args(2, const_cast<char **>(argv));
    EXPECT_THROW(args.flagInt("n", 0), sim::FatalError);
    EXPECT_THROW(args.flagDouble("n", 0), sim::FatalError);
    EXPECT_THROW(args.flagIntList("n", {}), sim::FatalError);
}

TEST(Args, FlagIntList)
{
    const char *argv[] = {"prog", "--sizes=2,4,8", "--one=6"};
    Args args(3, const_cast<char **>(argv));
    EXPECT_EQ(args.flagIntList("sizes", {}),
              (std::vector<int>{2, 4, 8}));
    EXPECT_EQ(args.flagIntList("one", {}), (std::vector<int>{6}));
    EXPECT_EQ(args.flagIntList("missing", {1, 2}),
              (std::vector<int>{1, 2}));
}

TEST(BenchOptions, CountsBeyondIntAreFatal)
{
    // A narrowing cast would run these as --replays=2, --sizes=2,2,
    // --workloads=3 and --per-bench=1.
    for (const char *flag : {"--replays=4294967298", "--sizes=2,4294967298",
                             "--workloads=4294967299",
                             "--per-bench=-4294967295"}) {
        const char *argv[] = {"prog", flag};
        Args args(2, const_cast<char **>(argv));
        EXPECT_THROW(bench::BenchOptions::fromArgs(args, "test"),
                     sim::FatalError)
            << flag;
    }
}

TEST(Report, TableAlignsAndCsvEscapesNothing)
{
    AsciiTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addSeparator();
    t.addRow({"beta-long-name", "2.50"});
    EXPECT_EQ(t.rows(), 3u);

    std::ostringstream os;
    t.print(os);
    std::string text = os.str();
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("beta-long-name"), std::string::npos);
    EXPECT_NE(text.find("----"), std::string::npos);

    std::ostringstream csv;
    t.printCsv(csv);
    EXPECT_EQ(csv.str(), "name,value\nalpha,1\nbeta-long-name,2.50\n");
}

TEST(Report, RowArityChecked)
{
    AsciiTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), sim::PanicError);
}

TEST(Report, Formatting)
{
    EXPECT_EQ(fmt(1.2345, 2), "1.23");
    EXPECT_EQ(fmt(1.0, 0), "1");
    EXPECT_EQ(fmtTimes(2.5), "2.50x");
}

TEST(Report, JsonObjectRendering)
{
    JsonObject o;
    o.add("name", "al\"pha\n")
        .add("x", 1.5)
        .add("n", static_cast<std::int64_t>(-3))
        .add("ok", true)
        .add("v", std::vector<double>{1.0, 2.5})
        .add("s", std::vector<std::string>{"a", "b"});
    EXPECT_EQ(o.str(),
              "{\"name\":\"al\\\"pha\\n\",\"x\":1.5,\"n\":-3,"
              "\"ok\":true,\"v\":[1,2.5],\"s\":[\"a\",\"b\"]}");
}

TEST(Report, TableJsonlKeyedByHeaders)
{
    AsciiTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addSeparator(); // separators are omitted from JSONL
    t.addRow({"beta", "2.50"});

    std::ostringstream os;
    t.printJsonl(os);
    EXPECT_EQ(os.str(),
              "{\"name\":\"alpha\",\"value\":\"1\"}\n"
              "{\"name\":\"beta\",\"value\":\"2.50\"}\n");
}

TEST(Scheme, Labels)
{
    Scheme s;
    s.policy = "fcfs";
    EXPECT_EQ(s.label(), "fcfs");
    s.policy = "dss";
    s.mechanism = "draining";
    EXPECT_EQ(s.label(), "dss/draining");
}

TEST(Scheme, LabelIncludesNonDefaultTransferPolicy)
{
    // Two schemes differing only in transfer policy must not collide.
    Scheme fcfs_xfer{"ppq_excl", "context_switch", "fcfs"};
    Scheme prio_xfer{"ppq_excl", "context_switch", "priority"};
    EXPECT_EQ(fcfs_xfer.label(), "ppq_excl/context_switch");
    EXPECT_EQ(prio_xfer.label(),
              "ppq_excl/context_switch/priority-xfer");
    EXPECT_NE(fcfs_xfer.label(), prio_xfer.label());

    Scheme npq{"npq", "context_switch", "priority"};
    EXPECT_EQ(npq.label(), "npq/priority-xfer");
}

TEST(Runner, RunProducesConsistentMetrics)
{
    Runner runner;
    RunRequest req;
    req.plan.benchmarks = {"sgemm", "spmv"};
    req.plan.seed = 7;
    req.scheme.policy = "dss";
    req.minReplays = 2;
    auto result = runner.runOne(req);

    ASSERT_EQ(result.metrics.ntt.size(), 2u);
    for (double ntt : result.metrics.ntt)
        EXPECT_GT(ntt, 0.9);
    EXPECT_GT(result.metrics.stp, 0.0);
    EXPECT_LE(result.metrics.stp, 2.0 + 1e-9);
    EXPECT_GE(result.metrics.fairness, 0.0);
    EXPECT_LE(result.metrics.fairness, 1.0);
    EXPECT_GT(result.sys.kernelsCompleted, 0u);
}

TEST(Runner, ConfigOverridesReachSimulation)
{
    // Shrinking the GPU must slow the isolated run down.
    Runner big;
    double t13 = big.isolatedTimeUs("sgemm", 1);

    sim::Config small_cfg;
    small_cfg.set("gpu.num_sms", static_cast<std::int64_t>(2));
    Runner small(small_cfg);
    double t2 = small.isolatedTimeUs("sgemm", 1);

    EXPECT_GT(t2, t13);
}
