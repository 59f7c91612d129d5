/** Unit tests for the configuration store. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "gpu/gpu_config.hh"
#include "memory/gpu_memory.hh"
#include "memory/pcie.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "tests/test_util.hh"
#include "workload/host_cpu.hh"
#include "workload/system.hh"

using namespace gpump;
using sim::Config;
using test::fatalMessageOf;

TEST(Config, DefaultsWhenAbsent)
{
    Config c;
    EXPECT_DOUBLE_EQ(c.getDouble("k", 2.5), 2.5);
    EXPECT_EQ(c.getInt("k", 7), 7);
    EXPECT_TRUE(c.getBool("k", true));
    EXPECT_FALSE(c.has("k"));
}

TEST(Config, TypedRoundTrips)
{
    Config c;
    c.set("s", std::string("0x10"));
    c.set("d", 3.25);
    c.set("i", static_cast<std::int64_t>(-42));
    c.set("b", true);
    EXPECT_EQ(c.getInt("s", 0), 16);
    EXPECT_DOUBLE_EQ(c.getDouble("d", 0), 3.25);
    EXPECT_EQ(c.getInt("i", 0), -42);
    EXPECT_TRUE(c.getBool("b", false));
}

TEST(Config, ParseTokens)
{
    Config c;
    EXPECT_TRUE(c.parse("gpu.num_sms=13"));
    EXPECT_EQ(c.getInt("gpu.num_sms", 0), 13);
    EXPECT_FALSE(c.parse("no-equals"));
    EXPECT_FALSE(c.parse("=value"));
    // Value may itself contain '='.
    EXPECT_TRUE(c.parse("expr=a=b"));
    EXPECT_EQ(c.fingerprint(), "expr=a\\=b;gpu.num_sms=13;");
}

TEST(Config, ConversionErrorsAreFatal)
{
    Config c;
    c.set("x", std::string("not-a-number"));
    EXPECT_THROW(c.getDouble("x", 0), sim::FatalError);
    EXPECT_THROW(c.getInt("x", 0), sim::FatalError);
    EXPECT_THROW(c.getBool("x", false), sim::FatalError);
    // strtod accepts these spellings; no model parameter does.
    for (const char *v : {"nan", "inf", "-inf"}) {
        c.set("x", std::string(v));
        EXPECT_THROW(c.getDouble("x", 0), sim::FatalError) << v;
    }
}

TEST(Config, Int32RejectsValuesBeyondItsRange)
{
    Config c;
    c.set("i", static_cast<std::int64_t>(-2147483648LL));
    EXPECT_EQ(c.getInt32("i", 0), -2147483647 - 1);
    c.set("i", static_cast<std::int64_t>(2147483647));
    EXPECT_EQ(c.getInt32("i", 0), 2147483647);
    EXPECT_EQ(c.getInt32("absent", -3), -3);
    for (std::int64_t v :
         {std::int64_t{2147483648LL}, std::int64_t{-2147483649LL}}) {
        c.set("i", v);
        EXPECT_THROW(c.getInt32("i", 0), sim::FatalError) << v;
    }
}

TEST(Config, HostAndBusCountsBeyondIntAreFatal)
{
    // Each value is 2^32 + the Table 2 default, which a narrowing cast
    // would silently turn back into the default.
    Config cores;
    cores.parse("cpu.cores=4294967300");
    EXPECT_THROW(workload::CpuParams::fromConfig(cores), sim::FatalError);
    Config threads;
    threads.parse("cpu.threads_per_core=4294967298");
    EXPECT_THROW(workload::CpuParams::fromConfig(threads),
                 sim::FatalError);
    Config lanes;
    lanes.parse("pcie.lanes=4294967328");
    EXPECT_THROW(memory::PcieParams::fromConfig(lanes), sim::FatalError);
}

TEST(Config, MicrosecondsConvertOnlyRepresentableDurations)
{
    Config c;
    EXPECT_EQ(c.getMicroseconds("absent", 1234), 1234);
    c.set("d", 2.5);
    EXPECT_EQ(c.getMicroseconds("d", 0), 2500);
    c.set("d", 0.0);
    EXPECT_EQ(c.getMicroseconds("d", 7), 0);
    // 9.2e15 us is 9.2e18 ns, just inside the int64 nanosecond clock.
    c.set("d", 9.2e15);
    EXPECT_EQ(c.getMicroseconds("d", 0), sim::microseconds(9.2e15));
    for (double v : {-1.0, -1e-9, 9.3e15, 1e300}) {
        c.set("d", v);
        std::string msg = fatalMessageOf([&] { c.getMicroseconds("d", 0); });
        EXPECT_NE(msg.find("'d'"), std::string::npos) << v << ": " << msg;
    }
}

TEST(Config, HostAndBusDurationsRejectNegativeAndOverflowingValues)
{
    for (const char *v : {"-1", "1e300"}) {
        Config pcie;
        pcie.set("pcie.setup_latency_us", std::string(v));
        std::string msg = fatalMessageOf(
            [&] { memory::PcieParams::fromConfig(pcie); });
        EXPECT_NE(msg.find("pcie.setup_latency_us"), std::string::npos)
            << v << ": " << msg;

        Config cpu;
        cpu.set("cpu.kernel_launch_overhead_us", std::string(v));
        workload::SystemSpec spec;
        spec.benchmarks = {"sgemm"};
        msg = fatalMessageOf([&] { workload::System system(spec, cpu); });
        EXPECT_NE(msg.find("cpu.kernel_launch_overhead_us"),
                  std::string::npos)
            << v << ": " << msg;
    }
    EXPECT_EQ(memory::PcieParams::fromConfig(Config()).setupLatency,
              memory::PcieParams().setupLatency);
    EXPECT_EQ(memory::PcieParams().setupLatency, sim::microseconds(2.0));
}

TEST(Config, BoolSpellings)
{
    Config c;
    for (const char *t : {"true", "1", "yes", "on"}) {
        c.set("b", std::string(t));
        EXPECT_TRUE(c.getBool("b", false)) << t;
    }
    for (const char *f : {"false", "0", "no", "off"}) {
        c.set("b", std::string(f));
        EXPECT_FALSE(c.getBool("b", true)) << f;
    }
}

TEST(Config, IntParsesHex)
{
    Config c;
    c.set("h", std::string("0x10"));
    EXPECT_EQ(c.getInt("h", 0), 16);
}

TEST(Config, IntIsDecimalOrHexOverTheWholeValue)
{
    // A leading zero is decimal, never octal: "010" is ten SMs.
    const std::pair<const char *, std::int64_t> good[] = {
        {"010", 10},
        {"08", 8},
        {"-010", -10},
        {"+7", 7},
        {"0X1f", 31},
        {"-0x10", -16},
        {"9223372036854775807", 9223372036854775807LL},
        {"-9223372036854775808", -9223372036854775807LL - 1},
    };
    Config c;
    for (const auto &[text, value] : good) {
        c.set("i", std::string(text));
        EXPECT_EQ(c.getInt("i", 0), value) << text;
    }
    for (const char *text :
         {"", " 5", "5 ", "0x", "-", "1e3", "12abc", "0b1", "0x1g", "--1",
          "9223372036854775808", "-9223372036854775809",
          "99999999999999999999"}) {
        c.set("i", std::string(text));
        std::string msg = fatalMessageOf([&] { c.getInt("i", 0); });
        EXPECT_NE(msg.find("'i'"), std::string::npos) << text << ": " << msg;
    }

    Config sms;
    sms.parse("gpu.num_sms=010");
    EXPECT_EQ(gpu::GpuParams::fromConfig(sms).numSms, 10);
}

TEST(Config, MergeOverlayWins)
{
    Config base;
    base.set("a", static_cast<std::int64_t>(1));
    base.set("b", static_cast<std::int64_t>(2));
    Config overlay;
    overlay.set("b", static_cast<std::int64_t>(20));
    overlay.set("c", static_cast<std::int64_t>(30));

    base.merge(overlay);
    EXPECT_EQ(base.getInt("a", 0), 1);
    EXPECT_EQ(base.getInt("b", 0), 20);
    EXPECT_EQ(base.getInt("c", 0), 30);
    // The overlay itself is untouched.
    EXPECT_FALSE(overlay.has("a"));
}

TEST(Config, FingerprintCanonical)
{
    Config a, b;
    a.set("zeta", static_cast<std::int64_t>(1));
    a.set("alpha", std::string("x"));
    b.set("alpha", std::string("x"));
    b.set("zeta", static_cast<std::int64_t>(1));
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    EXPECT_EQ(a.fingerprint(), "alpha=x;zeta=1;");
    EXPECT_EQ(Config().fingerprint(), "");

    b.set("zeta", static_cast<std::int64_t>(2));
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(Config, FingerprintEscapesSeparators)
{
    // {"a": "1;b=2"} must not collide with {"a": "1", "b": "2"}.
    Config tricky;
    tricky.set("a", std::string("1;b=2"));
    Config plain;
    plain.set("a", std::string("1"));
    plain.set("b", std::string("2"));
    EXPECT_NE(tricky.fingerprint(), plain.fingerprint());
    EXPECT_EQ(tricky.fingerprint(), "a=1\\;b\\=2;");
}

TEST(Config, KeysSorted)
{
    Config c;
    c.set("zeta", static_cast<std::int64_t>(1));
    c.set("alpha", static_cast<std::int64_t>(2));
    auto keys = c.keys();
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0], "alpha");
    EXPECT_EQ(keys[1], "zeta");
}

TEST(Config, GettersRecordTheKeysTheyRead)
{
    // Set or not, every key a typed getter looks up counts as read;
    // set() and has() read nothing.
    Config c;
    c.set("b.set", static_cast<std::int64_t>(2));
    c.set("z.unread", std::string("x"));
    EXPECT_TRUE(c.has("z.unread"));
    EXPECT_TRUE(c.readKeys().empty());

    c.getInt("b.set", 0);
    c.getDouble("a.absent", 1.0);
    c.getBool("c.absent", false);
    c.getInt32("e.absent", 0);
    c.getMicroseconds("f.absent", 0);
    EXPECT_EQ(c.readKeys(),
              (std::vector<std::string>{"a.absent", "b.set", "c.absent",
                                        "e.absent", "f.absent"}));
    // A read that fails to convert still counts.
    EXPECT_THROW(c.getInt("z.unread", 0), sim::FatalError);
    EXPECT_EQ(c.readKeys().back(), "z.unread");
}

TEST(ConfigFuzz, MutatedTokensReadCleanlyOrFail)
{
    // Seeded byte replaces, inserts and deletes of valid key=value
    // tokens.  Every reader of a mutant must return or raise
    // sim::FatalError, and what it accepts must make sense: a finite
    // double, a non-negative duration, a canonical boolean, and a
    // digits-only integer read as its decimal value.
    const std::string valid[] = {
        "gpu.num_sms=13",          "gpu.clock_ghz=1.4",
        "gpu.regs_per_sm=65536",   "gpu.num_hw_queues=0x20",
        "gpu.sm_setup_us=1.5",     "gpu.pipeline_drain_us=0",
        "gpu.tb_time_cv=0.1",      "gpu.max_tb_slots_per_sm=010",
        "gmem.capacity=1073741824", "gmem.bandwidth=1.5e11",
        "gmem.contended_switch=true", "gmem.contended_switch=off",
    };
    const std::string alphabet = "0123456789.eE+-xX= \tafinorstuy";
    sim::Rng rng(20140614);
    int int_accepted = 0, int_refused = 0;
    for (int i = 0; i < 3000; ++i) {
        std::string m =
            valid[rng.uniformInt(std::uint64_t{std::size(valid)})];
        for (int edits = 1 + static_cast<int>(rng.uniformInt(
                 std::uint64_t{3}));
             edits > 0 && !m.empty(); --edits) {
            std::size_t at = rng.uniformInt(std::uint64_t{m.size()});
            char c = rng.uniformInt(std::uint64_t{4}) == 0
                ? static_cast<char>(1 + rng.uniformInt(std::uint64_t{255}))
                : alphabet[rng.uniformInt(std::uint64_t{alphabet.size()})];
            switch (rng.uniformInt(std::uint64_t{3})) {
              case 0: m[at] = c; break;
              case 1: m.insert(at, 1, c); break;
              default: m.erase(at, 1);
            }
        }
        Config cfg;
        if (!cfg.parse(m))
            continue;
        const std::string key = m.substr(0, m.find('='));
        const std::string value = m.substr(m.find('=') + 1);
        auto read = [&](const char *what, auto &&fn) {
            try {
                fn();
                return true;
            } catch (const sim::FatalError &) {
                return false;
            } catch (const std::exception &e) {
                ADD_FAILURE() << what << " threw '" << e.what()
                              << "' on '" << m << "'";
                return false;
            }
        };

        std::int64_t v = 0;
        bool is_int = read("getInt", [&] { v = cfg.getInt(key, 0); });
        ++(is_int ? int_accepted : int_refused);
        bool digits = !value.empty() &&
            std::all_of(value.begin(), value.end(),
                        [](unsigned char ch) { return std::isdigit(ch); });
        if (digits) {
            // The reference: decimal, in range, or refused.
            std::int64_t want = 0;
            bool fits = true;
            for (char ch : value) {
                int digit = ch - '0';
                fits = fits &&
                    want <= (std::numeric_limits<std::int64_t>::max() -
                             digit) / 10;
                if (fits)
                    want = want * 10 + digit;
            }
            EXPECT_EQ(is_int, fits) << m;
            if (is_int && fits) {
                EXPECT_EQ(v, want) << m;
            }
        }
        std::int32_t v32 = 0;
        if (read("getInt32", [&] { v32 = cfg.getInt32(key, 0); })) {
            EXPECT_TRUE(is_int) << m;
            EXPECT_EQ(v32, v) << m;
        }
        double d = 0.0;
        if (read("getDouble", [&] { d = cfg.getDouble(key, 0.0); })) {
            EXPECT_TRUE(std::isfinite(d)) << m;
        }
        sim::SimTime t = 0;
        if (read("getMicroseconds",
                 [&] { t = cfg.getMicroseconds(key, 0); })) {
            EXPECT_GE(t, 0) << m;
        }
        bool b = false;
        if (read("getBool", [&] { b = cfg.getBool(key, false); })) {
            const std::vector<std::string> spellings = b
                ? std::vector<std::string>{"true", "1", "yes", "on"}
                : std::vector<std::string>{"false", "0", "no", "off"};
            EXPECT_NE(std::find(spellings.begin(), spellings.end(), value),
                      spellings.end())
                << m;
        }
        read("GpuParams::fromConfig",
             [&] { gpu::GpuParams::fromConfig(cfg); });
        read("GpuMemoryParams::fromConfig",
             [&] { memory::GpuMemoryParams::fromConfig(cfg); });
    }
    EXPECT_GT(int_accepted, 300);
    EXPECT_GT(int_refused, 300);
}
