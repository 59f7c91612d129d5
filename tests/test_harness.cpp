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
    Args args(5, const_cast<char **>(argv), {"workloads", "csv"});
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
    Args args(2, const_cast<char **>(argv), {"n"});
    EXPECT_THROW(args.flagInt("n", 0), sim::FatalError);
    EXPECT_THROW(args.flagDouble("n", 0), sim::FatalError);
    EXPECT_THROW(args.flagIntList("n", {}), sim::FatalError);

    // strtod parses these, and each would slip past a range check;
    // the message names the flag.
    for (const char *flag : {"--n=nan", "--n=-nan", "--n=inf", "--n=-inf",
                             "--n=infinity", "--n=1e999"}) {
        const char *bad[] = {"prog", flag};
        try {
            Args(2, const_cast<char **>(bad), {"n"}).flagDouble("n", 0);
            ADD_FAILURE() << flag << " was accepted";
        } catch (const sim::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("--n"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Args, UnknownFlagsAreFatalAndNamed)
{
    // Each names the flag and, for a plausible typo, the flag meant.
    const std::vector<std::string> known = bench::BenchOptions::flags();
    const std::pair<const char *, const char *> cases[] = {
        {"--workers=2", "--workers"},
        {"--jbos=4", "did you mean --jobs?"},
        {"--cache_dir=x", "did you mean --cache-dir?"},
        {"--workres=2", "--workres"},
    };
    for (const auto &c : cases) {
        const char *argv[] = {"prog", "--quick", c.first};
        try {
            Args(3, const_cast<char **>(argv), known);
            ADD_FAILURE() << c.first << " was accepted";
        } catch (const sim::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(c.second),
                      std::string::npos)
                << e.what();
        }
    }

    // A binary that declares no flags (the examples) accepts none,
    // and the table benches take no bench options.
    const char *quick[] = {"prog", "--quick"};
    EXPECT_THROW(Args(2, const_cast<char **>(quick)), sim::FatalError);
    EXPECT_THROW(Args(2, const_cast<char **>(quick), {"csv", "jsonl"}),
                 sim::FatalError);
}

TEST(Args, FlagIntList)
{
    const char *argv[] = {"prog", "--sizes=2,4,8", "--one=6"};
    Args args(3, const_cast<char **>(argv), {"sizes", "one"});
    EXPECT_EQ(args.flagIntList("sizes", {}),
              (std::vector<int>{2, 4, 8}));
    EXPECT_EQ(args.flagIntList("one", {}), (std::vector<int>{6}));
    EXPECT_EQ(args.flagIntList("missing", {1, 2}),
              (std::vector<int>{1, 2}));
}

TEST(Args, IntegerFlagsAreDecimalOrHex)
{
    // Leading zeros are decimal, and a value beyond 64 bits is fatal,
    // never clamped; the message names the flag.
    const char *argv[] = {"prog", "--seed=010", "--sizes=010,0x10",
                          "--jobs=010"};
    Args args(4, const_cast<char **>(argv), bench::BenchOptions::flags());
    auto o = bench::BenchOptions::fromArgs(args, "test");
    EXPECT_EQ(o.seed, 10u);
    EXPECT_EQ(o.sizes, (std::vector<int>{10, 16}));
    EXPECT_EQ(o.jobs, 10);

    for (const char *flag :
         {"--seed=99999999999999999999", "--seed=-9223372036854775809",
          "--seed=0x", "--seed= 9", "--sizes=2,08x", "--jobs=1.0"}) {
        const char *bad[] = {"prog", flag};
        Args a(2, const_cast<char **>(bad), bench::BenchOptions::flags());
        try {
            bench::BenchOptions::fromArgs(a, "test");
            ADD_FAILURE() << flag << " was accepted";
        } catch (const sim::FatalError &e) {
            std::string name(flag, std::string(flag).find('='));
            EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
                << e.what();
        }
    }
}

TEST(BenchOptions, OutOfRangeValuesAreFatal)
{
    // A narrowing cast would run the counts as --replays=2,
    // --sizes=2,2, --workloads=3 and --per-bench=1, and a nan or
    // infinite --timeout would pass the < 0 check and turn the
    // watchdog off.  A count below 1 is fatal too: --workloads=-3
    // would reach vector::reserve (std::length_error), --workloads=0
    // and --per-bench=-1 would print empty or 0.00x tables, and
    // --replays=0 would reach the simulator.  A repeated size would
    // simulate and print its whole grid twice.
    for (const char *flag : {"--replays=4294967298", "--sizes=2,4294967298",
                             "--sizes=2,2",
                             "--workloads=4294967299",
                             "--per-bench=-4294967295", "--timeout=nan",
                             "--timeout=inf", "--per-bench=0",
                             "--per-bench=-1", "--workloads=0",
                             "--workloads=-3", "--replays=0",
                             "--replays=-2"}) {
        const char *argv[] = {"prog", flag};
        Args args(2, const_cast<char **>(argv),
                  bench::BenchOptions::flags());
        EXPECT_THROW(bench::BenchOptions::fromArgs(args, "test"),
                     sim::FatalError)
            << flag;
    }
}

TEST(BenchOptions, EveryBenchFlagParses)
{
    // Every flag fromArgs reads, and those the benches read
    // themselves (fig5's --mechanism, serve_slo's --loads and
    // --horizon-mult), is accepted and reaches its field.
    const char *argv[] = {"prog",          "--quick",
                          "--sizes=2,6",   "--per-bench=2",
                          "--workloads=4", "--replays=1",
                          "--seed=9",      "--csv",
                          "--jobs=3",      "--cache-dir=cache",
                          "--timeout=1.5", "--jsonl=out.jsonl",
                          "--mechanism=adaptive", "--loads=30,60",
                          "--horizon-mult=5"};
    Args args(15, const_cast<char **>(argv),
              bench::BenchOptions::flags(
                  {"mechanism", "loads", "horizon-mult"}));
    auto o = bench::BenchOptions::fromArgs(args, "test");
    EXPECT_EQ(o.sizes, (std::vector<int>{2, 6}));
    EXPECT_EQ(o.perBench, 2);
    EXPECT_EQ(o.workloads, 4);
    EXPECT_EQ(o.replays, 1);
    EXPECT_EQ(o.seed, 9u);
    EXPECT_TRUE(o.csv);
    EXPECT_EQ(o.jobs, 3);
    EXPECT_EQ(o.cacheDir, "cache");
    EXPECT_EQ(o.timeoutSec, 1.5);
    EXPECT_EQ(o.jsonl, "out.jsonl");
    EXPECT_EQ(args.flag("mechanism", ""), "adaptive");
    EXPECT_EQ(args.flagIntList("loads", {}), (std::vector<int>{30, 60}));
    EXPECT_EQ(args.flagDouble("horizon-mult", 0), 5.0);

    // The table benches' two flags.
    const char *table[] = {"prog", "--csv", "--jsonl"};
    EXPECT_NO_THROW(Args(3, const_cast<char **>(table), {"csv", "jsonl"}));
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
        .add("v", std::vector<double>{1.0, 2.5})
        .add("s", std::vector<std::string>{"a", "b"});
    EXPECT_EQ(o.str(),
              "{\"name\":\"al\\\"pha\\n\",\"x\":1.5,\"n\":-3,"
              "\"v\":[1,2.5],\"s\":[\"a\",\"b\"]}");
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
