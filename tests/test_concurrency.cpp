/**
 * Concurrency stress tests, written to run under ThreadSanitizer (the
 * ci tsan job builds the suite with -DGPUMP_SANITIZE=thread).
 *
 * The simulator itself is single-threaded by design, and
 * harness::Runner parallelizes a batch with forked processes.  What
 * stays thread-safe, for programs that run Systems on several
 * threads, is the memoizing baseline cache and the process-wide
 * Logger.  These tests drive exactly those seams — deliberate
 * first-access herds, level flips racing emission — so a data race
 * shows up as a TSan report here rather than as a flaky result.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "harness/runner.hh"
#include "sim/logging.hh"

using namespace gpump;
using namespace gpump::harness;

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
