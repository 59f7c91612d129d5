/**
 * Tests of the scheduling framework: command buffers, active queue /
 * KSRT bookkeeping, the SM driver's issue logic and the SRAM cost
 * model of Section 3.3.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/policy.hh"
#include "core/tables.hh"
#include "sim/logging.hh"
#include "tests/test_util.hh"

using namespace gpump;
using test::DeviceRig;

TEST(FrameworkTables, SramCostsMatchPaperClaims)
{
    gpu::GpuParams p; // GK110: 13 SMs, 16 TB slots
    core::FrameworkSramCosts c = core::frameworkSramCosts(p);

    // Section 3.3: command buffers + KSRT + SMST + active queue take
    // less than 0.5 KB of on-chip SRAM...
    EXPECT_LT(c.coreBytes(), 512);
    EXPECT_GT(c.coreBytes(), 256) << "suspiciously small: check widths";

    // ...and the PTBQs take 21 KB (13 queues x 13*16 entries x 8 B).
    EXPECT_EQ(c.ptbqBytes, 13 * 13 * 16 * 8);
    EXPECT_NEAR(static_cast<double>(c.ptbqBytes) / 1024.0, 21.0, 0.2);
}

TEST(FrameworkTables, GeometryScalesWithSms)
{
    gpu::GpuParams p;
    p.numSms = 1; // mobile GPU with one SM (Section 3.3 discussion)
    EXPECT_EQ(core::maxActiveKernels(p), 1);
    EXPECT_EQ(core::ptbqCapacityPerKernel(p), 16);
}

TEST(Framework, CommandBufferHoldsOneCommandPerContext)
{
    DeviceRig rig;
    auto k = test::makeProfile("k", 2000, 50.0);
    // Fill the active queue (13 kernels from 13 contexts) plus one
    // buffered command each for two more contexts.
    std::vector<gpu::CommandQueue *> queues;
    for (int c = 0; c < 15; ++c)
        queues.push_back(rig.queueFor(c));
    for (int c = 0; c < 15; ++c)
        rig.launch(queues[static_cast<size_t>(c)], &k);

    EXPECT_EQ(rig.framework.activeKernels().size(), 13u);
    EXPECT_TRUE(rig.framework.activeQueueFull());
    std::vector<sim::ContextId> waiting;
    rig.framework.waitingBuffers(waiting);
    ASSERT_EQ(waiting.size(), 2u);
    EXPECT_EQ(waiting[0], 13);
    EXPECT_EQ(waiting[1], 14);
    EXPECT_TRUE(rig.framework.hasBufferedCommand(13));

    // A second command from context 13's queue must stay in the
    // hardware queue: its buffer is occupied.
    rig.launch(queues[13], &k);
    EXPECT_EQ(queues[13]->depth(), 1u);
}

TEST(Framework, AdmitBeyondCapacityPanics)
{
    DeviceRig rig;
    auto k = test::makeProfile("k", 2000, 50.0);
    for (int c = 0; c < 14; ++c)
        rig.launch(rig.queueFor(c), &k);
    ASSERT_TRUE(rig.framework.activeQueueFull());
    EXPECT_THROW(rig.framework.admit(13), sim::PanicError);
}

TEST(Framework, UnallocatedTbsAccountsGrantedCapacity)
{
    DeviceRig rig;
    auto *q = rig.queueFor(0);
    // Occupancy 16, 40 TBs: needs ceil(40/16) = 3 SMs.
    auto k = test::makeProfile("k", 40, 100.0);
    rig.launch(q, &k);
    const auto &active = rig.framework.activeKernels();
    ASSERT_EQ(active.size(), 1u);
    // FCFS assigned 3 SMs synchronously; the remaining TBs are covered.
    EXPECT_EQ(active[0]->smsHeld, 3);
    EXPECT_EQ(rig.framework.unallocatedTbs(active[0]), 0);
    rig.run();
}

namespace {

/** Admits every command and grants no SM: the tests below drive the
 *  framework's grant primitives themselves. */
class AdmitOnlyPolicy : public core::SchedulingPolicy
{
  public:
    void onCommandWaiting(sim::ContextId) override
    {
        fw_->admitInArrivalOrder();
    }
    void onSmIdle(gpu::Sm *) override {}
    void onKernelFinished(gpu::KernelExec *) override
    {
        fw_->admitInArrivalOrder();
    }
    void onPreemptionComplete(gpu::Sm *, gpu::KernelExec *) override {}
};

/** A rig whose policy leaves every SM grant to the test. */
struct GrantRig : DeviceRig
{
    GrantRig() { framework.setPolicy(std::make_unique<AdmitOnlyPolicy>()); }

    /** Ids of the SMs @p k holds, ascending. */
    std::vector<int> smsOf(const gpu::KernelExec *k) const
    {
        std::vector<int> ids;
        for (const auto &sm : framework.sms()) {
            if (sm->kernel == k)
                ids.push_back(sm->id());
        }
        return ids;
    }
};

} // namespace

TEST(Framework, FillIdleSmsTakesLowestIdleSmsUntilCovered)
{
    GrantRig rig;
    // Occupancy 16: a needs ceil(40/16) = 3 SMs, b one.
    auto a_prof = test::makeProfile("a", 40, 10.0);
    auto b_prof = test::makeProfile("b", 16, 10.0);
    rig.launch(rig.queueFor(0), &a_prof);
    rig.launch(rig.queueFor(1), &b_prof);
    const auto &active = rig.framework.activeKernels();
    ASSERT_EQ(active.size(), 2u);
    gpu::KernelExec *a = active[0];
    gpu::KernelExec *b = active[1];
    ASSERT_EQ(rig.smsOf(a), std::vector<int>{});

    rig.framework.assignSm(rig.framework.sm(1), b);
    EXPECT_TRUE(rig.framework.fillIdleSms(a));
    // SM 1 is busy, so a gets 0, 2 and 3 and stops there.
    EXPECT_EQ(rig.smsOf(a), (std::vector<int>{0, 2, 3}));
    EXPECT_EQ(rig.smsOf(b), std::vector<int>{1});
    EXPECT_EQ(rig.framework.unallocatedTbs(a), 0);
    EXPECT_EQ(rig.framework.sm(4)->state, gpu::Sm::State::Idle);

    rig.run();
    EXPECT_EQ(rig.framework.kernelsCompleted(), 2u);
}

TEST(Framework, FillIdleSmsTakesEverySmAndReportsRunningOut)
{
    GrantRig rig;
    // 1000 TBs need 63 SMs; the GPU has 13.
    auto big = test::makeProfile("big", 1000, 10.0);
    auto small = test::makeProfile("small", 16, 10.0);
    rig.launch(rig.queueFor(0), &big);
    rig.launch(rig.queueFor(1), &small);
    gpu::KernelExec *k = rig.framework.activeKernels().at(0);
    gpu::KernelExec *other = rig.framework.activeKernels().at(1);

    EXPECT_FALSE(rig.framework.fillIdleSms(k));
    EXPECT_EQ(k->smsHeld, rig.framework.numSms());
    EXPECT_EQ(rig.framework.unallocatedTbs(k),
              1000 - rig.framework.numSms() * k->occupancy());
    // No idle SM is left for anyone.
    EXPECT_FALSE(rig.framework.fillIdleSms(other));
    EXPECT_EQ(other->smsHeld, 0);
}

TEST(Framework, FillIdleSmsLeavesCoveredKernelAlone)
{
    GrantRig rig;
    auto prof = test::makeProfile("k", 40, 10.0);
    rig.launch(rig.queueFor(0), &prof);
    gpu::KernelExec *k = rig.framework.activeKernels().at(0);

    ASSERT_TRUE(rig.framework.fillIdleSms(k));
    ASSERT_EQ(k->smsHeld, 3);
    EXPECT_TRUE(rig.framework.fillIdleSms(k));
    EXPECT_EQ(rig.smsOf(k), (std::vector<int>{0, 1, 2}));

    rig.run();
    EXPECT_EQ(rig.framework.kernelsCompleted(), 1u);
}

TEST(Framework, AssignToReservationNeedsAnUncoveredTarget)
{
    GrantRig rig;
    auto covered_prof = test::makeProfile("covered", 16, 10.0);
    auto open_prof = test::makeProfile("open", 16, 10.0);
    rig.launch(rig.queueFor(0), &covered_prof);
    rig.launch(rig.queueFor(1), &open_prof);
    gpu::KernelExec *covered = rig.framework.activeKernels().at(0);
    gpu::KernelExec *open = rig.framework.activeKernels().at(1);
    ASSERT_TRUE(rig.framework.fillIdleSms(covered));
    gpu::Sm *sm = rig.framework.sm(5);

    // A target that finished meanwhile arrives as null.
    EXPECT_FALSE(rig.framework.assignToReservation(sm, nullptr));
    EXPECT_FALSE(rig.framework.assignToReservation(sm, covered));
    EXPECT_EQ(sm->state, gpu::Sm::State::Idle);
    EXPECT_EQ(covered->smsHeld, 1);

    EXPECT_TRUE(rig.framework.assignToReservation(sm, open));
    EXPECT_EQ(sm->kernel, open);
    EXPECT_EQ(sm->state, gpu::Sm::State::Setup);

    rig.run();
    EXPECT_EQ(rig.framework.kernelsCompleted(), 2u);
}

namespace {

/** AdmitOnlyPolicy that also hands a vacated SM to its reservation's
 *  target, as DSS and ppq_aging do. */
class HandOverPolicy : public AdmitOnlyPolicy
{
  public:
    void onPreemptionComplete(gpu::Sm *sm, gpu::KernelExec *next) override
    {
        fw_->assignToReservation(sm, next);
    }
};

/** Records when each kernel, by context, first issues a block. */
struct StartLog : core::EngineObserver
{
    explicit StartLog(sim::Simulation &sim) : sim(&sim) {}
    void kernelStarted(const gpu::KernelExec &k) override
    {
        started.push_back({k.ctx(), sim->now()});
    }
    sim::Simulation *sim;
    std::vector<std::pair<sim::ContextId, sim::SimTime>> started;
};

/** A rig whose policy grants no SM but honours reservations. */
struct HandOverRig : DeviceRig
{
    explicit HandOverRig(const std::string &mechanism = "context_switch")
        : DeviceRig("fcfs", mechanism), log(sim)
    {
        framework.setPolicy(std::make_unique<HandOverPolicy>());
        framework.addObserver(&log);
    }

    /** Enqueue a kernel of @p prof on context @p ctx; @p done
     *  receives its completion time. */
    void submit(sim::ContextId ctx, const trace::KernelProfile *prof,
                sim::SimTime *done)
    {
        auto cmd = pool.makeKernel(ctx, 0, prof);
        cmd->onComplete = [this, done] { *done = sim.now(); };
        dispatcher.enqueue(queueFor(ctx), cmd);
    }

    StartLog log;
};

} // namespace

TEST(Framework, SmReservedInSetupIsHandedOverAndOldSetupNeverFires)
{
    HandOverRig rig;
    auto a_prof = test::makeProfile("a", 16, 10.0);
    auto b_prof = test::makeProfile("b", 16, 10.0);
    sim::SimTime a_done = -1, b_done = -1;
    rig.submit(0, &a_prof, &a_done);
    rig.submit(1, &b_prof, &b_done);
    gpu::KernelExec *a = rig.framework.activeKernels().at(0);
    gpu::KernelExec *b = rig.framework.activeKernels().at(1);
    gpu::Sm *sm = rig.framework.sm(0);
    const sim::SimTime setup =
        rig.params.smSetupLatency + rig.params.contextLoadLatency;
    const sim::SimTime reserve_at = setup / 2;

    rig.framework.assignSm(sm, a);
    ASSERT_TRUE(sm->timer.armed());
    rig.sim.events().schedule(reserve_at, [&] {
        rig.framework.reserveSm(sm, b);
        // Handed over within the call: b's setup replaced a's.
        EXPECT_EQ(sm->kernel, b);
        EXPECT_EQ(sm->state, gpu::Sm::State::Setup);
        EXPECT_FALSE(sm->reserved);
        EXPECT_TRUE(sm->timer.armed());
        EXPECT_EQ(a->smsHeld, 0);
    });
    rig.run();

    // a never issued anywhere; b's setup ran from the hand-over, with
    // its own context load, and b then ran on the SM.
    ASSERT_EQ(rig.log.started.size(), 1u);
    EXPECT_EQ(rig.log.started[0].first, 1);
    EXPECT_EQ(rig.log.started[0].second, reserve_at + setup);
    EXPECT_EQ(b_done, reserve_at + setup + sim::microseconds(10.0));
    EXPECT_EQ(a_done, -1);
    EXPECT_EQ(sm->state, gpu::Sm::State::Idle);
    EXPECT_FALSE(sm->timer.armed());
}

TEST(Framework, KernelFinishingLeavesSmInSetupIdleWithNoLaterSetup)
{
    HandOverRig rig;
    // 17 blocks of 0.1 us: SM 0 runs 16 at once, then the last one.
    auto prof = test::makeProfile("k", 17, 0.1);
    sim::SimTime done = -1;
    rig.submit(0, &prof, &done);
    gpu::KernelExec *k = rig.framework.activeKernels().at(0);
    gpu::Sm *sm0 = rig.framework.sm(0);
    gpu::Sm *sm1 = rig.framework.sm(1);
    const sim::SimTime setup =
        rig.params.smSetupLatency + rig.params.contextLoadLatency;
    const sim::SimTime tb = sim::microseconds(0.1);

    rig.framework.assignSm(sm0, k);
    // While the first 16 run, the 17th is still issuable: grant SM 1
    // for it.  SM 0 issues it first, and k finishes long before
    // SM 1's setup would end.
    rig.sim.events().schedule(setup + tb / 2, [&] {
        rig.framework.assignSm(sm1, k);
        EXPECT_EQ(sm1->state, gpu::Sm::State::Setup);
        EXPECT_TRUE(sm1->timer.armed());
    });
    const sim::SimTime end = rig.run();

    EXPECT_EQ(done, setup + 2 * tb);
    EXPECT_EQ(rig.framework.kernelsCompleted(), 1u);
    EXPECT_EQ(sm1->state, gpu::Sm::State::Idle);
    EXPECT_EQ(sm1->kernel, nullptr);
    EXPECT_FALSE(sm1->timer.armed());
    // Nothing fired after the kernel finished: SM 1's setup (due at
    // setup + tb / 2 + setup) was dropped with the kernel.
    EXPECT_EQ(end, done);
    EXPECT_EQ(rig.log.started.size(), 1u);
    EXPECT_EQ(sm0->state, gpu::Sm::State::Idle);
}

TEST(Framework, DrainedSmHandedOverInItsLastCompletionFinishesSetup)
{
    // The last draining block's completion vacates the SM, and the
    // policy assigns it to the reservation's target inside that same
    // timer callback.  The new setup rides the SM's timer, so the
    // completion path must not disarm it on the way out.
    HandOverRig rig("draining");
    auto a_prof = test::makeProfile("a", 16, 10.0);
    auto b_prof = test::makeProfile("b", 16, 10.0);
    sim::SimTime a_done = -1, b_done = -1;
    rig.submit(0, &a_prof, &a_done);
    rig.submit(1, &b_prof, &b_done);
    gpu::KernelExec *a = rig.framework.activeKernels().at(0);
    gpu::KernelExec *b = rig.framework.activeKernels().at(1);
    gpu::Sm *sm = rig.framework.sm(0);
    const sim::SimTime setup =
        rig.params.smSetupLatency + rig.params.contextLoadLatency;
    const sim::SimTime tb = sim::microseconds(10.0);

    rig.framework.assignSm(sm, a);
    rig.sim.events().schedule(setup + tb / 2, [&] {
        rig.framework.reserveSm(sm, b);
        EXPECT_EQ(sm->state, gpu::Sm::State::Draining);
    });
    rig.run();

    // a's blocks drain at setup + tb, the SM goes to b in that
    // callback, and b's setup (a context load included) ends setup
    // later.
    EXPECT_EQ(a_done, setup + tb);
    ASSERT_EQ(rig.log.started.size(), 2u);
    EXPECT_EQ(rig.log.started[1].first, 1);
    EXPECT_EQ(rig.log.started[1].second, setup + tb + setup);
    EXPECT_EQ(b_done, setup + tb + setup + tb);
    EXPECT_EQ(sm->state, gpu::Sm::State::Idle);
}

TEST(Framework, PreemptedTbsIssueBeforeFreshOnes)
{
    // Two-context scenario under PPQ/context switch: the low-priority
    // kernel is preempted, then resumes; its PTBQ blocks must be
    // re-issued before fresh blocks.
    DeviceRig rig("ppq_excl", "context_switch");
    auto *q0 = rig.queueFor(0);
    auto *q1 = rig.queueFor(1);

    // occupancy 16 -> 13 SMs busy with 208 resident TBs, 292 fresh left.
    auto lo = test::makeProfile("lo", 500, 100.0);
    auto hi = test::makeProfile("hi", 13, 20.0);

    rig.launch(q0, &lo, /*priority=*/0);
    rig.run(sim::microseconds(10.0));
    const auto *lo_exec = rig.framework.activeKernels().at(0);
    int fresh_before = lo_exec->issuedFresh();

    rig.launch(q1, &hi, /*priority=*/5);
    rig.run(sim::microseconds(40.0)); // hi done; lo resumes

    // After resumption the kernel must drain its PTBQ first: no new
    // fresh TBs may be taken while preempted ones remain.
    const auto &active = rig.framework.activeKernels();
    ASSERT_FALSE(active.empty());
    const auto *lo_after = active.front();
    if (lo_after->hasPreemptedTbs()) {
        EXPECT_EQ(lo_after->issuedFresh(), fresh_before)
            << "fresh TBs issued while the PTBQ was non-empty";
    }
    rig.run();
    EXPECT_EQ(rig.framework.kernelsCompleted(), 2u);
}

TEST(Framework, KernelExecTbAccounting)
{
    gpu::GpuParams params;
    auto prof = test::makeProfile("k", 4, 1.0);
    gpu::CommandPool pool;
    auto cmd = pool.makeKernel(0, 0, &prof);
    gpu::KernelExec k(0, cmd, params, 8);

    EXPECT_EQ(k.totalTbs(), 4);
    EXPECT_TRUE(k.hasFreshTbs());
    EXPECT_FALSE(k.hasPreemptedTbs());

    EXPECT_EQ(k.takeFreshTb(), 0);
    EXPECT_EQ(k.takeFreshTb(), 1);
    k.tbStarted();
    k.tbStarted();
    k.tbEnded(true);
    k.tbEnded(false); // preempted, not completed
    EXPECT_EQ(k.completed(), 1);

    k.pushPreemptedTb({1, sim::microseconds(0.5)});
    EXPECT_TRUE(k.hasPreemptedTbs());
    auto pt = k.takePreemptedTb();
    EXPECT_EQ(pt.tbIndex, 1);
    EXPECT_FALSE(k.finished());
}

TEST(Framework, PtbqOverflowPanics)
{
    gpu::GpuParams params;
    auto prof = test::makeProfile("k", 100, 1.0);
    gpu::CommandPool pool;
    auto cmd = pool.makeKernel(0, 0, &prof);
    gpu::KernelExec k(0, cmd, params, 2);
    k.pushPreemptedTb({0, 1});
    k.pushPreemptedTb({1, 1});
    EXPECT_THROW(k.pushPreemptedTb({2, 1}), sim::PanicError);
}

TEST(Framework, ObserverSeesLifecycle)
{
    // Two observers append to one shared log: every hook site must
    // notify both, the first-registered one first.
    struct Entry
    {
        int observer;
        std::string event;
        sim::SimTime now;
    };
    struct Obs : core::EngineObserver
    {
        Obs(int id, std::vector<Entry> &log, sim::Simulation &sim)
            : id(id), log(&log), sim(&sim)
        {
        }
        int id;
        std::vector<Entry> *log;
        sim::Simulation *sim;
        int admitted = 0, started = 0, finished = 0, assigned = 0;
        std::uint64_t tbs = 0;
        sim::SimTime finishedAt = -1;

        void note(const char *event)
        {
            log->push_back({id, event, sim->now()});
        }
        void kernelAdmitted(const gpu::KernelExec &) override
        {
            ++admitted;
            note("admitted");
        }
        void kernelStarted(const gpu::KernelExec &) override
        {
            ++started;
            note("started");
        }
        void smAssigned(const gpu::Sm &, const gpu::KernelExec &) override
        {
            ++assigned;
            note("assigned");
        }
        void tbCompleted(const gpu::Sm &, const gpu::KernelExec &,
                         sim::SimTime, sim::SimTime) override
        {
            ++tbs;
            note("tb");
        }
        void kernelFinished(const gpu::KernelExec &,
                            sim::SimTime now) override
        {
            ++finished;
            finishedAt = now;
            note("finished");
        }
    };

    DeviceRig rig;
    std::vector<Entry> log;
    Obs first(0, log, rig.sim);
    Obs second(1, log, rig.sim);
    rig.framework.addObserver(&first);
    rig.framework.addObserver(&second);
    auto k = test::makeProfile("k", 40, 10.0);
    sim::SimTime completed_at = -1;
    auto cmd = rig.pool.makeKernel(0, 0, &k);
    cmd->onComplete = [&] { completed_at = rig.sim.now(); };
    rig.dispatcher.enqueue(rig.queueFor(0), cmd);
    rig.run();

    ASSERT_EQ(rig.framework.tbsCompleted(), 40u);
    ASSERT_GT(completed_at, 0);
    for (const Obs *obs : {&first, &second}) {
        EXPECT_EQ(obs->admitted, 1);
        EXPECT_EQ(obs->started, 1);
        EXPECT_EQ(obs->finished, 1);
        EXPECT_EQ(obs->assigned, 3);
        EXPECT_EQ(obs->tbs, rig.framework.tbsCompleted());
        EXPECT_EQ(obs->finishedAt, completed_at);
    }
    // Registration order: each event appears as a (first, second)
    // pair of adjacent entries.
    ASSERT_EQ(log.size(), 2u * (1 + 1 + 3 + 40 + 1));
    for (std::size_t i = 0; i < log.size(); i += 2) {
        EXPECT_EQ(log[i].observer, 0) << i;
        EXPECT_EQ(log[i + 1].observer, 1) << i;
        EXPECT_EQ(log[i].event, log[i + 1].event) << i;
        EXPECT_EQ(log[i].now, log[i + 1].now) << i;
    }
}

TEST(Framework, SetupLatencySkippedForSameContext)
{
    // Back-to-back kernels of one context must not pay the context
    // load again: only the base SM setup.
    DeviceRig rig;
    auto *q = rig.queueFor(0);
    auto k1 = test::makeProfile("k1", 13, 10.0);
    auto k2 = test::makeProfile("k2", 13, 10.0);
    sim::SimTime end1 = -1, end2 = -1;
    auto c1 = rig.pool.makeKernel(0, 0, &k1);
    c1->onComplete = [&] { end1 = rig.sim.now(); };
    auto c2 = rig.pool.makeKernel(0, 0, &k2);
    c2->onComplete = [&] { end2 = rig.sim.now(); };
    rig.dispatcher.enqueue(q, c1);
    rig.dispatcher.enqueue(q, c2);
    rig.run();
    // k1: setup + ctx load + 10 us.  k2: setup only + 10 us.
    sim::SimTime k1_time = rig.params.smSetupLatency +
        rig.params.contextLoadLatency + sim::microseconds(10.0);
    sim::SimTime k2_time =
        rig.params.smSetupLatency + sim::microseconds(10.0);
    EXPECT_EQ(end1, k1_time);
    EXPECT_EQ(end2, k1_time + k2_time);
}

TEST(Framework, CompletionTimelineKeepsQueuePressureBounded)
{
    // The per-SM completion timeline arms exactly one event per busy
    // SM, so the global event queue holds O(SMs) live events instead
    // of O(resident TBs) — with 13 SMs at occupancy 16 the old design
    // kept ~208 completion events pending.
    DeviceRig rig;
    auto *q = rig.queueFor(0);
    auto k = test::makeProfile("big", 2000, 50.0);
    rig.launch(q, &k);

    std::size_t peak = 0;
    std::function<void()> sample = [&] {
        std::size_t p = rig.sim.events().pending();
        peak = std::max(peak, p);
        if (p > 0) {
            rig.sim.events().scheduleIn(sim::microseconds(25.0),
                                        [&] { sample(); });
        }
    };
    sample();
    rig.run();

    EXPECT_EQ(rig.framework.kernelsCompleted(), 1u);
    std::size_t sms =
        static_cast<std::size_t>(rig.framework.numSms());
    EXPECT_LE(peak, sms + 8u)
        << "queue pressure is not O(SMs): completion events are not "
           "being coalesced per SM";
    EXPECT_GT(peak, 2u) << "probe never saw the engine busy";
}

TEST(ResidentTimeline, RandomInsertsAndPopsMatchSortedReference)
{
    // The timeline against a vector kept sorted by (endAt, seq): random
    // inserts (ties on endAt included), head pops and clears.  Eight
    // cells hold at most six blocks, so inserts keep meeting full
    // storage with a consumed prefix; reclaiming it must keep every
    // block in the one buffer, which is never reallocated.
    auto before = [](const gpu::ResidentTb &a, const gpu::ResidentTb &b) {
        return a.endAt != b.endAt ? a.endAt < b.endAt : a.seq < b.seq;
    };
    auto same = [](const gpu::ResidentTb &a, const gpu::ResidentTb &b) {
        return a.tbIndex == b.tbIndex && a.startedAt == b.startedAt &&
            a.endAt == b.endAt && a.seq == b.seq;
    };
    constexpr std::size_t capacity = 8;
    gpu::ResidentTimeline timeline;
    timeline.reserve(capacity);
    std::vector<gpu::ResidentTb> ref;
    const gpu::ResidentTb *storage = nullptr;
    std::uint64_t lcg = 12345, seq = 0;
    auto rnd = [&lcg](std::uint64_t mod) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return (lcg >> 33) % mod;
    };
    int pops = 0, clears = 0;
    for (int op = 0; op < 20000; ++op) {
        std::uint64_t what = rnd(100);
        if (what < 2) {
            timeline.clear();
            ref.clear();
            ++clears;
        } else if (what < 50 && ref.size() < capacity - 2) {
            sim::SimTime now = op;
            gpu::ResidentTb tb{op, now,
                               now + static_cast<sim::SimTime>(rnd(12)),
                               seq++};
            auto at = timeline.insert(tb);
            ASSERT_TRUE(same(*at, tb));
            ref.insert(std::upper_bound(ref.begin(), ref.end(), tb, before),
                       tb);
            if (storage == nullptr)
                storage = &*at;
        } else if (!ref.empty()) {
            timeline.popFront();
            ref.erase(ref.begin());
            ++pops;
        }
        ASSERT_EQ(timeline.size(), ref.size()) << "op " << op;
        ASSERT_EQ(timeline.empty(), ref.empty());
        ASSERT_TRUE(std::equal(timeline.begin(), timeline.end(),
                               ref.begin(), ref.end(), same))
            << "op " << op;
        if (!ref.empty()) {
            ASSERT_TRUE(same(timeline.front(), ref.front()));
            ASSERT_TRUE(same(timeline.back(), ref.back()));
            ASSERT_GE(&timeline.front(), storage) << "op " << op;
            ASSERT_LT(&timeline.back(), storage + capacity)
                << "the timeline reallocated instead of reclaiming its "
                   "consumed prefix (op "
                << op << ")";
        }
    }
    EXPECT_GT(pops, 5000);
    EXPECT_GT(clears, 100);
}
