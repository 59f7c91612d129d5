/**
 * Concurrency stress tests, written to run under ThreadSanitizer (the
 * ci tsan job builds the suite with -DGPUMP_SANITIZE=thread).
 *
 * The simulator itself is single-threaded by design, and
 * harness::Runner parallelizes a batch with forked processes.  What
 * stays thread-safe, for programs that run Systems on several
 * threads, is the memoizing baseline cache.  This test drives that
 * seam with a deliberate first-access herd, so a data race shows up
 * as a TSan report here rather than as a flaky result.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "harness/runner.hh"

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
