/**
 * Concurrency stress tests, written to run under ThreadSanitizer (the
 * ci tsan job builds the suite with -DGPUMP_SANITIZE=thread).
 *
 * The simulator itself is single-threaded by design; the only code
 * that runs concurrently is the harness layer (Runner's job pool and
 * the memoizing baseline cache) and the process-wide Logger.  These
 * tests drive exactly those seams harder than the functional suite
 * does — maximum pool sizes, deliberate first-access herds, level
 * flips racing emission — so a data race shows up as a TSan report
 * here rather than as a once-a-month flaky batch result.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "harness/suite.hh"
#include "sim/logging.hh"

using namespace gpump;
using namespace gpump::harness;

namespace {

/** Grid with enough requests and distinct benchmarks that an 8-job
 *  runner keeps every worker busy at once. */
Batch
contentionGrid()
{
    Suite suite("stress");
    suite.sizes({4})
        .uniform(/*count=*/3, /*base_seed=*/20140614)
        .minReplays(1)
        .scheme("FCFS", {"fcfs", "context_switch", "fcfs"})
        .scheme("DSS-CS", {"dss", "context_switch", "fcfs"});
    return suite.build();
}

} // namespace

TEST(ConcurrencyStress, JobsBitIdenticalUnderContention)
{
    // jobs=8 batch workers all sharing one memoizing cache: the
    // heaviest thread shape the harness supports.  The determinism
    // contract says the results must still be bit-identical to the
    // fully serial run.
    Batch batch = contentionGrid();

    Runner serial(sim::Config(), /*jobs=*/1);
    auto expected = serial.run(batch.requests);

    Runner stressed(sim::Config(), /*jobs=*/8);
    auto actual = stressed.run(batch.requests);

    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i].metrics.antt, actual[i].metrics.antt) << i;
        EXPECT_EQ(expected[i].metrics.stp, actual[i].metrics.stp) << i;
        EXPECT_EQ(expected[i].metrics.ntt, actual[i].metrics.ntt) << i;
        EXPECT_EQ(expected[i].isolatedUs, actual[i].isolatedUs) << i;
        EXPECT_EQ(expected[i].sys.meanTurnaroundUs,
                  actual[i].sys.meanTurnaroundUs)
            << i;
        EXPECT_EQ(expected[i].sys.endTime, actual[i].sys.endTime) << i;
        EXPECT_EQ(expected[i].sys.eventsExecuted,
                  actual[i].sys.eventsExecuted)
            << i;
    }

    // Every distinct benchmark across the whole batch computed its
    // isolated baseline exactly once, no matter how many of the 8
    // workers raced for it.
    std::vector<std::string> distinct;
    for (const auto &req : batch.requests) {
        for (const auto &b : req.plan.benchmarks) {
            if (std::find(distinct.begin(), distinct.end(), b) ==
                distinct.end())
                distinct.push_back(b);
        }
    }
    EXPECT_EQ(stressed.baselines().computations(), distinct.size());
}

TEST(ConcurrencyStress, BaselineCacheFirstAccessHerd)
{
    // All threads released at once onto the same two cold keys: the
    // shared_future handoff must serialize each key to one computation
    // with every waiter observing that one value.
    IsolatedBaselineCache cache;
    sim::Config cfg;
    constexpr int kThreads = 8;
    const char *benchmarks[] = {"sgemm", "histo"};

    std::atomic<bool> go{false};
    std::vector<double> values(kThreads, 0.0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            while (!go.load(std::memory_order_acquire)) {
            }
            values[static_cast<std::size_t>(t)] =
                cache.timeUs(benchmarks[t % 2], cfg, 1);
        });
    }
    go.store(true, std::memory_order_release);
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(cache.computations(), 2u);
    for (int t = 2; t < kThreads; ++t) {
        EXPECT_DOUBLE_EQ(values[static_cast<std::size_t>(t)],
                         values[static_cast<std::size_t>(t % 2)]);
    }
    EXPECT_GT(values[0], 0.0);
    EXPECT_GT(values[1], 0.0);
    EXPECT_NE(values[0], values[1]);
}

TEST(ConcurrencyStress, LoggerLevelFlipsRaceEmission)
{
    // The Logger is the one object shared by every concurrent run.
    // Hammer emit() from four threads while a fifth flips the level:
    // the atomic threshold and the emission mutex must keep this free
    // of data races (TSan enforces; the test itself just must not
    // crash or emit — both levels used are below the message level).
    sim::Logger log;
    log.setLevel(sim::LogLevel::Silent);

    std::atomic<bool> stop{false};
    std::thread flipper([&] {
        bool warn = false;
        while (!stop.load(std::memory_order_relaxed)) {
            log.setLevel(warn ? sim::LogLevel::Warn
                              : sim::LogLevel::Silent);
            warn = !warn;
        }
    });

    std::vector<std::thread> emitters;
    for (int t = 0; t < 4; ++t) {
        emitters.emplace_back([&log] {
            for (int i = 0; i < 2000; ++i) {
                // Inform is never enabled at Silent or Warn, so the
                // stress stays quiet; the level check itself is the
                // contended read.
                log.emit(sim::LogLevel::Inform, "stress");
                if (log.enabled(sim::LogLevel::Trace))
                    ADD_FAILURE() << "Trace can never be enabled here";
            }
        });
    }
    for (auto &t : emitters)
        t.join();
    stop.store(true, std::memory_order_relaxed);
    flipper.join();

    sim::LogLevel final_level = log.level();
    EXPECT_TRUE(final_level == sim::LogLevel::Silent ||
                final_level == sim::LogLevel::Warn);
}
