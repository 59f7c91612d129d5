/** Tests of the Dynamic Spatial Sharing policy (Section 3.4). */

#include <gtest/gtest.h>

#include <map>

#include "core/dss.hh"
#include "sim/logging.hh"
#include "tests/test_util.hh"
#include "workload/system.hh"

using namespace gpump;
using test::DeviceRig;

namespace {

/** DSS rig with explicit token configuration (equal sharing for
 *  @p nprocs processes on 13 SMs). */
DeviceRig
dssRig(int nprocs, const std::string &mechanism = "context_switch")
{
    sim::Config cfg;
    cfg.set("dss.tokens_per_kernel",
            static_cast<std::int64_t>(13 / nprocs));
    cfg.set("dss.bonus_tokens", static_cast<std::int64_t>(13 % nprocs));
    return DeviceRig("dss", mechanism, cfg);
}

/** SMs currently held per context. */
std::map<sim::ContextId, int>
smShares(core::SchedulingFramework &fw)
{
    std::map<sim::ContextId, int> shares;
    for (const auto &sm : fw.sms()) {
        if (sm->kernel != nullptr)
            ++shares[sm->kernel->ctx()];
    }
    return shares;
}

} // namespace

TEST(Dss, LoneKernelTakesWholeGpuThroughDebt)
{
    // tc = 6 for a 2-process setup, but only one kernel is present:
    // debt lets it occupy all 13 SMs (Section 3.4).
    auto rig = dssRig(2);
    auto k = test::makeProfile("k", 2000, 100.0);
    rig.launch(rig.queueFor(0), &k);
    rig.run(sim::microseconds(10.0));

    auto shares = smShares(rig.framework);
    EXPECT_EQ(shares[0], 13);
    const auto &active = rig.framework.activeKernels();
    ASSERT_EQ(active.size(), 1u);
    // 7 tokens granted (6 + bonus), 13 SMs held -> tokens = -6.
    EXPECT_EQ(active[0]->tokens, 7 - 13);
}

TEST(Dss, TwoKernelsSplitSevenSix)
{
    auto rig = dssRig(2);
    auto ka = test::makeProfile("a", 4000, 50.0);
    auto kb = test::makeProfile("b", 4000, 50.0);
    rig.launch(rig.queueFor(0), &ka);
    rig.run(sim::microseconds(200.0));
    rig.launch(rig.queueFor(1), &kb);
    // Let the repartitioning preemptions complete.
    rig.run(sim::milliseconds(1.0));

    auto shares = smShares(rig.framework);
    // First-admitted kernel holds the bonus token: 7 vs 6.
    EXPECT_EQ(shares[0], 7);
    EXPECT_EQ(shares[1], 6);
}

TEST(Dss, EqualSharingIgnoresPriority)
{
    auto rig = dssRig(2);
    auto lo = test::makeProfile("lo", 40000, 50.0);
    auto hi = test::makeProfile("hi", 40000, 50.0);
    rig.launch(rig.queueFor(0), &lo, 0);
    rig.run(sim::microseconds(300.0));
    rig.launch(rig.queueFor(1), &hi, 7);
    rig.run(rig.sim.now() + sim::milliseconds(2.0));
    auto shares = smShares(rig.framework);
    EXPECT_EQ(shares[0], 7);
    EXPECT_EQ(shares[1], 6)
        << "equal sharing must ignore process priorities";
}

TEST(Dss, FourKernelsSplitFourThreeThreeThree)
{
    auto rig = dssRig(4);
    auto k = test::makeProfile("k", 8000, 50.0);
    for (int c = 0; c < 4; ++c) {
        rig.launch(rig.queueFor(c), &k);
        rig.run(rig.sim.now() + sim::microseconds(100.0));
    }
    rig.run(rig.sim.now() + sim::milliseconds(2.0));

    auto shares = smShares(rig.framework);
    EXPECT_EQ(shares[0], 4) << "first kernel keeps the bonus SM";
    EXPECT_EQ(shares[1], 3);
    EXPECT_EQ(shares[2], 3);
    EXPECT_EQ(shares[3], 3);
}

TEST(Dss, SteadyStateSpreadAtMostOne)
{
    auto rig = dssRig(6);
    auto k = test::makeProfile("k", 8000, 50.0);
    for (int c = 0; c < 6; ++c) {
        rig.launch(rig.queueFor(c), &k);
        rig.run(rig.sim.now() + sim::microseconds(50.0));
    }
    rig.run(rig.sim.now() + sim::milliseconds(2.0));

    auto shares = smShares(rig.framework);
    int lo = 99, hi = 0, total = 0;
    for (const auto &kv : shares) {
        lo = std::min(lo, kv.second);
        hi = std::max(hi, kv.second);
        total += kv.second;
    }
    EXPECT_EQ(total, 13) << "all SMs in use (work-conserving)";
    EXPECT_LE(hi - lo, 1) << "equal sharing: spread at most one SM";
}

TEST(Dss, TokenConservationInvariant)
{
    // granted = tokens + held(unreserved-for-others) + reserved-for-me
    // holds at every quiet point.
    auto rig = dssRig(2);
    auto k = test::makeProfile("k", 4000, 50.0);
    rig.launch(rig.queueFor(0), &k);
    rig.run(sim::microseconds(300.0));
    rig.launch(rig.queueFor(1), &k);
    rig.run(rig.sim.now() + sim::milliseconds(1.0));

    for (const gpu::KernelExec *ke : rig.framework.activeKernels()) {
        int held_not_leaving = 0;
        for (const auto &sm : rig.framework.sms()) {
            if (sm->kernel == ke && !sm->reserved)
                ++held_not_leaving;
        }
        int granted = 6 + (ke->hasBonusToken ? 1 : 0);
        EXPECT_EQ(ke->tokens + held_not_leaving + ke->smsReserved,
                  granted)
            << "token ledger out of balance for ctx " << ke->ctx();
    }
}

TEST(Dss, DifferentContextsShareEngineConcurrently)
{
    // The whole point of the extensions: kernels of different
    // processes run on disjoint SM sets at the same time.
    auto rig = dssRig(2);
    auto ka = test::makeProfile("a", 4000, 50.0);
    auto kb = test::makeProfile("b", 4000, 50.0);
    rig.launch(rig.queueFor(0), &ka);
    rig.launch(rig.queueFor(1), &kb);
    rig.run(sim::milliseconds(1.0));

    auto shares = smShares(rig.framework);
    EXPECT_GE(shares[0], 1);
    EXPECT_GE(shares[1], 1);
}

TEST(Dss, BonusTokenRecycles)
{
    auto rig = dssRig(2);
    auto short_k = test::makeProfile("s", 13, 5.0);
    auto long_k = test::makeProfile("l", 4000, 50.0);
    rig.launch(rig.queueFor(0), &short_k); // takes the bonus
    rig.launch(rig.queueFor(1), &long_k);
    rig.run(sim::microseconds(200.0)); // short kernel finished

    auto *dss =
        dynamic_cast<core::DssPolicy *>(&rig.framework.policy());
    ASSERT_NE(dss, nullptr);
    // The bonus either returned to the pool or was granted to a newly
    // admitted kernel; with only the long kernel active it must be
    // back in the pool... the long kernel was admitted while the
    // short one still held it, so the pool has it now.
    EXPECT_EQ(dss->bonusPool(), 1);
    rig.run();
}

TEST(Dss, WorksWithDraining)
{
    auto rig = dssRig(2, "draining");
    auto ka = test::makeProfile("a", 20000, 50.0);
    auto kb = test::makeProfile("b", 20000, 50.0);
    rig.launch(rig.queueFor(0), &ka);
    rig.run(sim::microseconds(300.0));
    rig.launch(rig.queueFor(1), &kb);
    rig.run(rig.sim.now() + sim::milliseconds(1.0));

    auto shares = smShares(rig.framework);
    EXPECT_EQ(shares[0], 7);
    EXPECT_EQ(shares[1], 6);
    EXPECT_DOUBLE_EQ(rig.framework.contextBytesSaved(), 0.0);
}

TEST(Dss, RedistributesWhenKernelFinishes)
{
    auto rig = dssRig(2);
    auto short_k = test::makeProfile("s", 7 * 16, 100.0);
    auto long_k = test::makeProfile("l", 20000, 50.0);
    rig.launch(rig.queueFor(0), &short_k);
    rig.run(sim::microseconds(50.0));
    rig.launch(rig.queueFor(1), &long_k);
    // Run past the short kernel's completion (~200 us + preemptions)
    // but not past the long kernel's (~5 ms of work).
    rig.run(sim::milliseconds(3.0));

    auto shares = smShares(rig.framework);
    EXPECT_EQ(shares[1], 13)
        << "survivor takes over the whole engine via debt";
}

TEST(Dss, FactoryReadsConfig)
{
    sim::Config cfg;
    cfg.set("dss.tokens_per_kernel", static_cast<std::int64_t>(3));
    cfg.set("dss.bonus_tokens", static_cast<std::int64_t>(1));
    auto policy = core::makePolicy("dss", cfg);
    auto *dss = dynamic_cast<core::DssPolicy *>(policy.get());
    ASSERT_NE(dss, nullptr);
    EXPECT_EQ(dss->bonusPool(), 1);
}

TEST(Policies, FactoryRejectsUnknown)
{
    sim::Config cfg;
    EXPECT_THROW(core::makePolicy("lottery", cfg), sim::FatalError);
}

TEST(Dss, AssemblyDefaultsRespectExplicitOverrides)
{
    // The registered assemblyDefaults hook fills the equal-share pair
    // (tc = floor(NSMs/Np), r = NSMs mod Np) only for keys the caller
    // left unset; an explicit override is never clobbered.
    auto bonus_pool_of = [](const sim::Config &overrides) {
        workload::SystemSpec spec;
        spec.benchmarks = {"sgemm", "spmv"};
        spec.policy = "dss";
        workload::System system(spec, overrides);
        auto *dss = dynamic_cast<core::DssPolicy *>(
            &system.framework().policy());
        EXPECT_NE(dss, nullptr);
        return dss == nullptr ? -1 : dss->bonusPool();
    };

    // Neither key set: 13 SMs over 2 processes -> remainder 1.
    EXPECT_EQ(bonus_pool_of(sim::Config()), 1);

    // Explicit bonus, default tokens: the override survives.
    sim::Config bonus_only;
    bonus_only.set("dss.bonus_tokens", static_cast<std::int64_t>(5));
    EXPECT_EQ(bonus_pool_of(bonus_only), 5);

    // Explicit tokens, default bonus: the remainder is meaningless
    // next to a caller-chosen budget, so bonus falls back to 0.
    sim::Config tokens_only;
    tokens_only.set("dss.tokens_per_kernel",
                    static_cast<std::int64_t>(4));
    EXPECT_EQ(bonus_pool_of(tokens_only), 0);
}
