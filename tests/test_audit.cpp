/**
 * Tests of the compile-time-gated invariant-audit layer
 * (core/audit.hh, DESIGN.md §12).
 *
 * The file compiles in both flavors and tests each side of the gate:
 *
 *  - default build (GPUMP_AUDIT_BUILD off): the macro must generate no
 *    code and never evaluate its condition, and simulation output must
 *    match the pinned golden aggregates — the audit layer's existence
 *    cannot perturb results;
 *  - audit build: a deliberately corrupted EventQueue entry and a
 *    deliberately over-admitted ResidencyManager must abort through
 *    auditFail (EXPECT_DEATH), and the same golden aggregate must
 *    still hold — enabled audits observe, they do not mutate.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/audit.hh"
#include "harness/suite.hh"
#include "memory/gpu_memory.hh"
#include "memory/residency.hh"
#include "sim/event.hh"
#include "sim/stats.hh"

using namespace gpump;

TEST(Audit, ConditionIsNeverEvaluatedWhenDisabled)
{
#if GPUMP_AUDIT_ENABLED
    GTEST_SKIP() << "audit build: conditions are evaluated by design";
#else
    int evaluations = 0;
    // A failing condition with a side effect: in a default build the
    // condition sits in an unevaluated sizeof, so the counter must
    // stay untouched and nothing aborts.
    GPUMP_AUDIT((++evaluations, false), "must not fire when disabled");
    EXPECT_EQ(evaluations, 0);
#endif
}

TEST(Audit, PassingAuditIsSilentWhenEnabled)
{
#if GPUMP_AUDIT_ENABLED
    int evaluations = 0;
    GPUMP_AUDIT((++evaluations, true), "a holding invariant is silent");
    EXPECT_EQ(evaluations, 1);
#else
    GTEST_SKIP() << "default build: GPUMP_AUDIT generates no code";
#endif
}

TEST(Audit, GoldenAggregateIdenticalWithAndWithoutAudits)
{
    // The fig7 --quick 2-process aggregate pinned since the figure
    // landed.  Running it from this file in BOTH build flavors pins
    // the contract that matters here: -DGPUMP_AUDIT_BUILD=ON must be
    // observation-only, and the default build's output must not move
    // because an audit expression was misplaced outside its gate.
    sim::Config cfg;
    cfg.set("gpu.tb_time_cv", 0.25); // figureConfig default

    harness::Suite suite("audit-golden");
    suite.sizes({2})
        .uniform(/*count=*/3, /*base_seed=*/20140614)
        .minReplays(2) // --quick
        .scheme("FCFS", {"fcfs", "context_switch", "fcfs"})
        .scheme("DSS-CS", {"dss", "context_switch", "fcfs"});
    harness::Batch batch = suite.build();

    harness::Runner runner(cfg, /*jobs=*/2);
    auto results = runner.run(batch.requests);

    double sum = 0;
    for (std::size_t pi = 0; pi < batch.numPlans(0); ++pi) {
        double base = results[batch.indexOf(0, pi, 0)].metrics.antt;
        double dss = results[batch.indexOf(0, pi, 1)].metrics.antt;
        sum += base / dss;
    }
    double avg = sum / static_cast<double>(batch.numPlans(0));

    constexpr double kGolden = 1.0022550475518892;
    EXPECT_NEAR(avg, kGolden, 1e-9)
        << "audit layer perturbed simulation output (GPUMP_AUDIT_ENABLED="
        << GPUMP_AUDIT_ENABLED << ")";
}

#if GPUMP_AUDIT_ENABLED

namespace {

/** Footprint unit of the rig (any size works; 64 KiB reads like a
 *  GPU page). */
constexpr std::int64_t kPage = 64 * 1024;

/** GpuMemory + a manager whose swap transfers are dropped, mirroring
 *  test_residency.cpp's rig. */
struct AuditResidencyRig
{
    sim::StatRegistry reg;
    memory::GpuMemory gmem;
    memory::ResidencyManager rm;

    explicit AuditResidencyRig(std::int64_t capacity_pages)
        : gmem(reg, paramsFor(capacity_pages)),
          rm(reg, gmem,
             [](sim::ContextId, int, std::int64_t, bool,
                std::function<void()>) {})
    {
    }

    static memory::GpuMemoryParams paramsFor(std::int64_t pages)
    {
        memory::GpuMemoryParams p;
        p.capacity = pages * kPage;
        return p;
    }
};

} // namespace

using AuditDeathTest = ::testing::Test;

TEST(AuditDeathTest, CorruptedEventQueueEntryAborts)
{
    sim::EventQueue q;
    int fired = 0;
    q.schedule(100, [&fired] { ++fired; });
    q.schedule(200, [&fired] { ++fired; });
    ASSERT_TRUE(q.step());
    ASSERT_EQ(q.now(), 100);

    // Zero the pending entry's firing key: the queue now claims its
    // next event fires at t=0 while time already reached t=100, and
    // the firing-order audit in step() must catch it.
    q.auditCorruptFrontKeyForTest();
    EXPECT_DEATH(q.step(), "firing order violated");
}

TEST(AuditDeathTest, OverCapacityResidencyAborts)
{
    AuditResidencyRig rig(8);
    rig.rm.registerContext(0, 0, 6 * kPage); // admitted resident
    rig.rm.registerContext(1, 0, 6 * kPage); // parked swapped-out
    ASSERT_TRUE(rig.rm.resident(0));
    ASSERT_FALSE(rig.rm.resident(1));

    // Force the second context Resident without an allocation: 12
    // pages of "resident" footprint on an 8-page device.  The next
    // mutator's capacity walk must abort.
    rig.rm.auditForceResidentForTest(1);
    EXPECT_DEATH(rig.rm.ensureResident(0, [] {}),
                 "exceeds device capacity");
}

#endif // GPUMP_AUDIT_ENABLED
