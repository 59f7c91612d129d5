/** Unit tests for the discrete-event core. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "sim/event.hh"
#include "sim/logging.hh"

using namespace gpump;
using sim::EventQueue;

namespace {

/** Heap allocations made by this test binary, counted by the global
 *  operator new below. */
std::atomic<std::size_t> allocations{0};

/** Every operator delete lands here.  Out of line, so the compiler
 *  cannot see a free() meet a pointer from operator new at an inlined
 *  call site and warn about mismatched allocation functions. */
[[gnu::noinline]] void
release(void *p) noexcept
{
    std::free(p);
}

} // namespace

void *
operator new(std::size_t n)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    release(p);
}

void
operator delete[](void *p) noexcept
{
    release(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    release(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    release(p);
}

TEST(EventQueue, StartsEmptyAtTimeZero)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_FALSE(q.step());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, SameTimeOrderedByPriorityThenFifo)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(3); }, sim::prioDefault);
    q.schedule(5, [&] { order.push_back(1); }, sim::prioCompletion);
    q.schedule(5, [&] { order.push_back(4); }, sim::prioDefault);
    q.schedule(5, [&] { order.push_back(2); }, sim::prioDriver);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, NowAdvancesDuringExecution)
{
    EventQueue q;
    sim::SimTime seen = -1;
    q.schedule(42, [&] { seen = q.now(); });
    q.run();
    EXPECT_EQ(seen, 42);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.run();
    EXPECT_THROW(q.schedule(5, [] {}), sim::PanicError);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool ran = false;
    auto h = q.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(h.pending());
    EXPECT_TRUE(h.cancel());
    EXPECT_FALSE(h.pending());
    EXPECT_FALSE(h.cancel()) << "double cancel must report failure";
    q.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(q.executed(), 0u);
}

TEST(EventQueue, CancelMaintainsPendingCount)
{
    EventQueue q;
    auto h1 = q.schedule(10, [] {});
    auto h2 = q.schedule(20, [] {});
    EXPECT_EQ(q.pending(), 2u);
    h1.cancel();
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_TRUE(q.empty());
    (void)h2;
}

TEST(EventQueue, CancelledHeadDoesNotAdvanceTime)
{
    EventQueue q;
    auto h = q.schedule(10, [] {});
    q.schedule(20, [] {});
    h.cancel();
    q.run();
    EXPECT_EQ(q.now(), 20);
}

TEST(EventQueue, RunHonoursLimit)
{
    EventQueue q;
    int count = 0;
    q.schedule(10, [&] { ++count; });
    q.schedule(20, [&] { ++count; });
    q.schedule(30, [&] { ++count; });
    q.run(20);
    EXPECT_EQ(count, 2) << "events at the limit must run";
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    std::vector<sim::SimTime> times;
    q.schedule(10, [&] {
        times.push_back(q.now());
        q.scheduleIn(5, [&] { times.push_back(q.now()); });
    });
    q.run();
    EXPECT_EQ(times, (std::vector<sim::SimTime>{10, 15}));
}

TEST(EventQueue, ScheduleInUsesCurrentTime)
{
    EventQueue q;
    q.schedule(100, [] {});
    q.run();
    sim::SimTime fired = 0;
    q.scheduleIn(7, [&] { fired = q.now(); });
    q.run();
    EXPECT_EQ(fired, 107);
}

TEST(EventQueue, HandleOutlivesExecution)
{
    EventQueue q;
    auto h = q.schedule(1, [] {});
    q.run();
    EXPECT_FALSE(h.pending());
    EXPECT_FALSE(h.cancel());
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue q;
    sim::SimTime last = -1;
    bool monotone = true;
    for (int i = 0; i < 10000; ++i) {
        // Deterministic scattered times with collisions.
        sim::SimTime t = (i * 7919) % 1000;
        q.schedule(t, [&, t] {
            if (q.now() < last)
                monotone = false;
            last = q.now();
        });
    }
    q.run();
    EXPECT_TRUE(monotone);
    EXPECT_EQ(q.executed(), 10000u);
}

TEST(EventQueue, NullCallbackPanics)
{
    EventQueue q;
    EXPECT_THROW(q.schedule(1, EventQueue::Callback()), sim::PanicError);
}

TEST(EventQueue, NegativeDelayPanics)
{
    EventQueue q;
    EXPECT_THROW(q.scheduleIn(-1, [] {}), sim::PanicError);
}

TEST(EventQueue, StaleHandleAfterSlotReuseIsInert)
{
    EventQueue q;
    auto h1 = q.schedule(10, [] {});
    q.run(); // h1's slot is recycled
    bool ran = false;
    auto h2 = q.schedule(20, [&] { ran = true; });
    // h1 now points at a reused slot; the generation counter must
    // keep it from observing or cancelling h2's event.
    EXPECT_FALSE(h1.pending());
    EXPECT_FALSE(h1.cancel());
    EXPECT_TRUE(h2.pending());
    q.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, CancelledSlotReuseKeepsOldHandleInert)
{
    EventQueue q;
    auto h1 = q.schedule(10, [] {});
    h1.cancel();
    int fired = 0;
    // Schedule/cancel/run enough times that h1's slot is certainly
    // recycled several times over.
    for (int i = 0; i < 20; ++i) {
        q.schedule(10 + i, [&] { ++fired; });
        EXPECT_FALSE(h1.pending());
        EXPECT_FALSE(h1.cancel());
    }
    q.run();
    EXPECT_EQ(fired, 20);
}

TEST(EventQueue, SlotsAreRecycledInSteadyState)
{
    EventQueue q;
    // Never more than one event in flight: the slab must not grow
    // beyond its peak concurrency no matter how many events run.
    for (int i = 0; i < 1000; ++i)
        q.schedule(i, [] {});
    q.run();
    std::size_t peak = q.slotsAllocated();
    for (int i = 0; i < 1000; ++i) {
        q.scheduleIn(1, [] {});
        q.run();
    }
    EXPECT_EQ(q.slotsAllocated(), peak)
        << "slots leaked instead of recycling through the free list";
}

TEST(EventQueue, SteadyStateSchedulingAllocatesNothing)
{
    // DESIGN.md §5: the event core is allocation-free on the hot path.
    // Sixteen events stay pending; each re-arms itself when it fires,
    // with a period of its own so the firing order keeps interleaving.
    struct Rearm
    {
        EventQueue *q;
        sim::SimTime period;
        void operator()() const { q->scheduleIn(period, *this); }
    };
    static_assert(sizeof(Rearm) <= sim::EventCallback::inlineBytes,
                  "the callback must stay in the inline buffer");
    const std::size_t pending = 16;
    EventQueue q;
    for (std::size_t i = 0; i < pending; ++i) {
        auto period = static_cast<sim::SimTime>(1 + i);
        q.schedule(period, Rearm{&q, period});
    }
    for (int i = 0; i < 1000; ++i)
        q.step();

    const std::size_t before = allocations.load();
    bool all_ran = true;
    for (int i = 0; i < 1000000; ++i)
        all_ran &= q.step();
    const std::size_t during = allocations.load() - before;

    EXPECT_TRUE(all_ran);
    EXPECT_EQ(during, 0u) << "the steady-state hot path allocated";
    EXPECT_EQ(q.pending(), pending);
}

TEST(EventQueue, MassCancellationCompactsTheHeap)
{
    EventQueue q;
    std::vector<EventQueue::Handle> handles;
    const std::size_t n = 1000;
    for (std::size_t i = 0; i < n; ++i) {
        handles.push_back(
            q.schedule(static_cast<sim::SimTime>(1000000 + i), [] {}));
    }
    EXPECT_EQ(q.heapEntries(), n);
    // Cancel all but the last: dead entries must not accumulate until
    // popped (they used to sit in the heap until their far-future
    // timestamps came up).
    for (std::size_t i = 0; i + 1 < n; ++i)
        handles[i].cancel();
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_LT(q.heapEntries(), 64u)
        << "cancelled far-future entries were not compacted away";
    bool ran = false;
    q.schedule(2000000, [&] { ran = true; }); // behind every cancelled one
    q.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(q.executed(), 2u);
}

TEST(EventQueue, LargeCapturesFallBackTransparently)
{
    EventQueue q;
    // A capture bigger than the inline buffer must still work (heap
    // fallback path of EventCallback).
    struct Big
    {
        char bytes[128];
    } big = {};
    big.bytes[0] = 42;
    char seen = 0;
    q.schedule(1, [big, &seen] { seen = big.bytes[0]; });
    static_assert(sizeof(Big) > sim::EventCallback::inlineBytes,
                  "capture intended to exceed the inline buffer");
    q.run();
    EXPECT_EQ(seen, 42);
}

TEST(EventQueue, ReservedSequencesBreakTiesInReservationOrder)
{
    EventQueue q;
    std::vector<int> order;
    // Reserve two sequence numbers, then arm them in reverse order:
    // ties at equal (time, priority) must fire in reservation order,
    // not scheduling order.
    std::uint64_t s1 = q.reserveSeq();
    std::uint64_t s2 = q.reserveSeq();
    q.scheduleWithSeq(5, s2, [&] { order.push_back(2); },
                      sim::prioCompletion);
    q.scheduleWithSeq(5, s1, [&] { order.push_back(1); },
                      sim::prioCompletion);
    q.schedule(5, [&] { order.push_back(3); }, sim::prioCompletion);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

/**
 * Randomized property test: arbitrary schedule/cancel/step
 * interleavings must fire exactly the events a naive reference model
 * predicts, in exactly the model's (time, priority, seq) order.
 */
TEST(EventQueueProperty, RandomInterleavingsMatchReferenceModel)
{
    std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
    auto rnd = [&lcg](std::uint64_t mod) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return (lcg >> 33) % mod;
    };
    const int prios[] = {sim::prioCompletion, sim::prioDriver,
                         sim::prioPolicy, sim::prioDefault};

    for (int round = 0; round < 25; ++round) {
        EventQueue q;
        struct ModelEvent
        {
            sim::SimTime when;
            int priority;
            std::uint64_t seq;
            int id;
            bool alive;
        };
        std::vector<ModelEvent> model;
        std::vector<EventQueue::Handle> handles;
        std::vector<int> fired;
        std::uint64_t seqCounter = 0; // mirrors the queue's counter

        auto modelNext = [&]() -> ModelEvent * {
            ModelEvent *best = nullptr;
            for (auto &e : model) {
                if (!e.alive)
                    continue;
                if (!best || e.when < best->when ||
                    (e.when == best->when &&
                     (e.priority < best->priority ||
                      (e.priority == best->priority &&
                       e.seq < best->seq)))) {
                    best = &e;
                }
            }
            return best;
        };

        for (int op = 0; op < 400; ++op) {
            std::uint64_t what = rnd(10);
            if (what < 6) { // schedule
                sim::SimTime when =
                    q.now() + static_cast<sim::SimTime>(rnd(50));
                int priority =
                    prios[rnd(sizeof(prios) / sizeof(prios[0]))];
                int id = static_cast<int>(model.size());
                std::uint64_t seq;
                if (rnd(4) == 0) {
                    // Exercise the reserve-then-arm path.
                    seq = q.reserveSeq();
                    ASSERT_EQ(seq, seqCounter++);
                    handles.push_back(q.scheduleWithSeq(
                        when, seq,
                        [&fired, id] { fired.push_back(id); },
                        priority));
                } else {
                    seq = seqCounter++;
                    handles.push_back(q.schedule(
                        when, [&fired, id] { fired.push_back(id); },
                        priority));
                }
                model.push_back({when, priority, seq, id, true});
            } else if (what < 8 && !model.empty()) { // cancel
                std::uint64_t pick = rnd(model.size());
                bool expect = model[pick].alive;
                EXPECT_EQ(handles[pick].cancel(), expect);
                EXPECT_FALSE(handles[pick].pending());
                model[pick].alive = false;
            } else { // step
                ModelEvent *next = modelNext();
                if (next == nullptr) {
                    EXPECT_FALSE(q.step());
                    EXPECT_TRUE(q.empty());
                } else {
                    ASSERT_TRUE(q.step());
                    EXPECT_EQ(q.now(), next->when);
                    ASSERT_FALSE(fired.empty());
                    EXPECT_EQ(fired.back(), next->id);
                    next->alive = false;
                }
            }
            // The live count always matches the model's.
            std::size_t alive = 0;
            for (const auto &e : model)
                alive += e.alive ? 1 : 0;
            ASSERT_EQ(q.pending(), alive);
        }

        // Drain; the tail must also fire in model order.
        while (ModelEvent *next = modelNext()) {
            ASSERT_TRUE(q.step());
            EXPECT_EQ(fired.back(), next->id);
            next->alive = false;
        }
        EXPECT_FALSE(q.step());
        EXPECT_TRUE(q.empty());
    }
}

namespace {

/**
 * Reference model for EventQueue driven from inside firing callbacks:
 * every live event's (time, priority, seq) key in an ordered set, so
 * the next event to fire is the set's first element.
 */
class CallbackModel
{
  public:
    explicit CallbackModel(std::uint64_t seed) : lcg_(seed) {}

    EventQueue q;
    /** Set once a check failed; stops the round without cascading. */
    bool failed = false;
    /** Callbacks stop scheduling and cancelling (drain phase). */
    bool quiet = false;
    /** Compactions triggered before the firing callback's first
     *  schedule: the window in which an earlier heap design kept the
     *  firing event's entry at the root, spent (the "spent root"). */
    int compactionsWhileSpent = 0;

    std::size_t alive() const { return live_.size(); }

    std::uint64_t rnd(std::uint64_t mod)
    {
        lcg_ = lcg_ * 6364136223846793005ull + 1442695040888963407ull;
        return (lcg_ >> 33) % mod;
    }

    /** Reserve a sequence number to arm some later event with. */
    void reserve()
    {
        std::uint64_t seq = q.reserveSeq();
        if (seq != seqCounter_++)
            fail("reserveSeq out of step with the model");
        reserved_.push_back(seq);
    }

    /** Schedule one event at @p when, with an older reserved sequence
     *  when @p reserved and one is available. */
    void add(sim::SimTime when, bool reserved)
    {
        const int prios[] = {sim::prioCompletion, sim::prioDriver,
                             sim::prioPolicy, sim::prioDefault};
        int priority = prios[rnd(4)];
        int id = static_cast<int>(keys_.size());
        auto cb = [this, id] { fire(id); };
        std::uint64_t seq;
        if (reserved && !reserved_.empty()) {
            std::size_t pick = rnd(reserved_.size());
            seq = reserved_[pick];
            reserved_.erase(reserved_.begin() +
                            static_cast<std::ptrdiff_t>(pick));
            handles_.push_back(q.scheduleWithSeq(when, seq, cb, priority));
        } else {
            seq = seqCounter_++;
            handles_.push_back(q.schedule(when, cb, priority));
        }
        keys_.push_back(Key{when, priority, seq, id});
        live_.insert(keys_.back());
        checkPending("after a schedule");
    }

  private:
    using Key = std::tuple<sim::SimTime, int, std::uint64_t, int>;

    void fail(const std::string &what)
    {
        if (!failed)
            ADD_FAILURE() << what;
        failed = true;
    }

    void checkPending(const char *where)
    {
        if (q.pending() != live_.size()) {
            fail(std::string("pending() disagrees with the model ") +
                 where + ": " + std::to_string(q.pending()) + " vs " +
                 std::to_string(live_.size()));
        }
    }

    void fire(int id)
    {
        if (failed)
            return;
        const Key &key = keys_[static_cast<std::size_t>(id)];
        if (live_.empty() || std::get<3>(*live_.begin()) != id ||
            q.now() != std::get<0>(key)) {
            fail("event " + std::to_string(id) +
                 " fired out of the model's order");
            return;
        }
        live_.erase(live_.begin());
        checkPending("in a firing callback");
        if (quiet)
            return;

        bool scheduled = false;
        bool cancel_first = rnd(2) == 0;
        if (cancel_first)
            cancelSome(scheduled);
        for (std::uint64_t n = rnd(3); n > 0; --n) {
            sim::SimTime delay =
                rnd(3) == 0 ? 0 : static_cast<sim::SimTime>(rnd(40));
            add(q.now() + delay, rnd(3) == 0);
            scheduled = true;
        }
        if (!cancel_first)
            cancelSome(scheduled);
        if (rnd(4) == 0)
            reserve();
        checkPending("at the end of a firing callback");
    }

    /** Cancel a few handles (run, cancelled or live alike), or now and
     *  then a burst of live ones big enough to compact the queue. */
    void cancelSome(bool scheduled)
    {
        if (rnd(8) != 0) {
            for (std::uint64_t n = rnd(3); n > 0; --n)
                cancel(rnd(handles_.size()));
            return;
        }
        std::size_t entries = q.heapEntries();
        std::vector<std::size_t> victims; // about 3 in 5 live events
        for (const Key &k : live_) {
            if (rnd(5) < 3)
                victims.push_back(static_cast<std::size_t>(std::get<3>(k)));
        }
        for (std::size_t pick : victims)
            cancel(pick);
        if (!scheduled && q.heapEntries() < entries)
            ++compactionsWhileSpent;
    }

    void cancel(std::size_t pick)
    {
        bool live = live_.erase(keys_[pick]) != 0;
        if (handles_[pick].cancel() != live)
            fail("cancel() disagrees with the model");
        if (handles_[pick].pending())
            fail("a cancelled handle still reads pending");
        checkPending("after a cancel");
    }

    std::uint64_t lcg_;
    std::uint64_t seqCounter_ = 0; ///< mirrors the queue's counter
    std::vector<Key> keys_;        ///< by event id
    std::set<Key> live_;           ///< firing order of live events
    std::vector<EventQueue::Handle> handles_;
    std::vector<std::uint64_t> reserved_; ///< reserved, not yet armed
};

} // namespace

/**
 * The reference-model property, driven from inside firing callbacks:
 * each schedules 0-2 events (some at now, some with an older reserved
 * sequence) and cancels pending ones, now and then in bursts that
 * compact the queue before the callback's first schedule.  Every
 * firing and every pending() must match the model.
 */
TEST(EventQueueProperty, CallbacksThatScheduleAndCancelMatchReferenceModel)
{
    int compactions_while_spent = 0;
    for (std::uint64_t round = 0; round < 16; ++round) {
        CallbackModel m(0x9e3779b97f4a7c15ull + round);
        for (int step = 0; step < 2000 && !m.failed; ++step) {
            // Keep enough events pending that a cancel burst reaches
            // the compaction threshold.
            while (m.alive() < 100) {
                m.add(m.q.now() + static_cast<sim::SimTime>(m.rnd(200)),
                      m.rnd(4) == 0);
            }
            if (m.rnd(8) == 0)
                m.reserve();
            ASSERT_TRUE(m.q.step());
            ASSERT_EQ(m.q.pending(), m.alive());
        }
        m.quiet = true;
        while (m.alive() > 0 && !m.failed)
            ASSERT_TRUE(m.q.step());
        EXPECT_FALSE(m.failed) << "round " << round;
        EXPECT_FALSE(m.q.step());
        EXPECT_TRUE(m.q.empty());
        compactions_while_spent += m.compactionsWhileSpent;
    }
    EXPECT_GT(compactions_while_spent, 50)
        << "the spent-root compaction path was barely exercised";
}

TEST(EventQueue, TimersFireInKeyOrderWithEvents)
{
    EventQueue q;
    std::vector<int> order;
    auto t1 = q.addTimer([&] { order.push_back(1); }, sim::prioCompletion);
    auto t2 = q.addTimer([&] { order.push_back(2); }, sim::prioDriver);
    EXPECT_FALSE(t1.armed());
    EXPECT_TRUE(q.empty());
    std::uint64_t s1 = q.reserveSeq();
    std::uint64_t s2 = q.reserveSeq();
    t2.arm(5, s1);
    t1.arm(5, s2);
    q.schedule(5, [&] { order.push_back(3); }, sim::prioCompletion);
    q.schedule(4, [&] { order.push_back(4); }, sim::prioDefault);
    EXPECT_TRUE(t1.armed());
    EXPECT_EQ(q.pending(), 4u);
    // t=4 first; at t=5 priority 0 before 10, and the timer's older
    // sequence before the event's.  Bounded, so a broken queue that
    // keeps firing fails instead of running away.
    for (int i = 0; i < 8 && q.step(); ++i) {
    }
    EXPECT_EQ(order, (std::vector<int>{4, 1, 3, 2}));
    EXPECT_EQ(q.executed(), 4u);
    EXPECT_FALSE(t1.armed());
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.heapEntries(), 0u);
}

TEST(EventQueue, TimerArmInThePastOrWithUnreservedSeqPanics)
{
    EventQueue q;
    auto t = q.addTimer([] {}, sim::prioDefault);
    q.schedule(10, [] {});
    q.run();
    EXPECT_THROW(t.arm(5, q.reserveSeq()), sim::PanicError);
    EXPECT_THROW(t.arm(20, q.reserveSeq() + 1), sim::PanicError);
    EXPECT_FALSE(t.armed());
}

TEST(EventQueue, SteadyStateTimerRearmAllocatesNothing)
{
    // DESIGN.md §5: a timer re-arming from its own callback, as an SM's
    // completion timer does after every thread block, allocates
    // nothing.  Thirteen timers, one per SM of the Table 2 GPU, each
    // with a period of its own so the firing order keeps interleaving.
    struct Periodic
    {
        EventQueue::Timer timer;
        sim::SimTime period;
    };
    struct Rearm
    {
        EventQueue *q;
        Periodic *p;
        void operator()() const
        {
            p->timer.arm(q->now() + p->period, q->reserveSeq());
        }
    };
    static_assert(sizeof(Rearm) <= sim::EventCallback::inlineBytes,
                  "the callback must stay in the inline buffer");
    const std::size_t timers = 13;
    EventQueue q;
    std::vector<Periodic> periodic(timers);
    for (std::size_t i = 0; i < timers; ++i) {
        Periodic &p = periodic[i];
        p.period = static_cast<sim::SimTime>(1 + i);
        p.timer = q.addTimer(Rearm{&q, &p}, sim::prioCompletion);
        Rearm{&q, &p}();
    }
    for (int i = 0; i < 1000; ++i)
        q.step();

    const std::size_t before = allocations.load();
    bool all_ran = true;
    for (int i = 0; i < 1000000; ++i)
        all_ran &= q.step();
    const std::size_t during = allocations.load() - before;

    EXPECT_TRUE(all_ran);
    EXPECT_EQ(during, 0u) << "the steady-state timer path allocated";
    EXPECT_EQ(q.pending(), timers);
    EXPECT_EQ(q.executed(), 1001000u);
    EXPECT_EQ(q.slotsAllocated(), 0u);
}

namespace {

/**
 * Reference model for timers and heap events together: every live
 * key, a timer's or an event's, in one ordered set of (time,
 * priority, seq), so the next to fire is the set's first element.
 * Timers are tagged -1 - id, events by their id.
 */
class TimerModel
{
  public:
    static constexpr std::size_t numTimers = 13;

    explicit TimerModel(std::uint64_t seed) : lcg_(seed)
    {
        const int prios[] = {sim::prioCompletion, sim::prioDriver,
                             sim::prioPolicy, sim::prioDefault};
        for (std::size_t t = 0; t < numTimers; ++t) {
            int priority = prios[rnd(4)];
            timerPrio_.push_back(priority);
            timers_.push_back(
                q.addTimer([this, t] { fire(-1 - static_cast<int>(t)); },
                           priority));
            armedKey_.emplace_back();
        }
    }

    EventQueue q;
    bool failed = false;
    /** Callbacks stop arming and scheduling (drain phase). */
    bool quiet = false;
    /** Firing timers that re-armed, disarmed, or left themselves. */
    int rearmedSelf = 0, disarmedSelf = 0, leftSelf = 0;
    /** Timer updates made inside a timer callback before, and after,
     *  the firing timer's own re-arm or disarm. */
    int othersBeforeSelf = 0, othersAfterSelf = 0;

    std::size_t alive() const { return live_.size(); }

    std::uint64_t rnd(std::uint64_t mod)
    {
        lcg_ = lcg_ * 6364136223846793005ull + 1442695040888963407ull;
        return (lcg_ >> 33) % mod;
    }

    void reserve() { reserved_.push_back(takeSeq()); }

    /** Arm timer @p t at now + delay, with a fresh or an older reserved
     *  sequence. */
    void arm(std::size_t t)
    {
        sim::SimTime when = q.now() +
            (rnd(3) == 0 ? 0 : static_cast<sim::SimTime>(rnd(40)));
        std::uint64_t seq = pickSeq();
        if (armedKey_[t].has)
            live_.erase(armedKey_[t].key);
        armedKey_[t] = {true, Key{when, timerPrio_[t], seq,
                                  -1 - static_cast<int>(t)}};
        live_.insert(armedKey_[t].key);
        timers_[t].arm(when, seq);
        check("after an arm");
    }

    void disarm(std::size_t t)
    {
        if (armedKey_[t].has)
            live_.erase(armedKey_[t].key);
        armedKey_[t].has = false;
        timers_[t].disarm();
        check("after a disarm");
    }

    /** Schedule a heap event at @p when, with an older reserved
     *  sequence when @p reserved and one is available. */
    void schedule(sim::SimTime when, bool reserved)
    {
        const int prios[] = {sim::prioCompletion, sim::prioDriver,
                             sim::prioPolicy, sim::prioDefault};
        int priority = prios[rnd(4)];
        int id = static_cast<int>(events_.size());
        auto cb = [this, id] { fire(id); };
        std::uint64_t seq;
        if (reserved && !reserved_.empty()) {
            seq = pickReserved();
            handles_.push_back(q.scheduleWithSeq(when, seq, cb, priority));
        } else {
            seq = seqCounter_++;
            handles_.push_back(q.schedule(when, cb, priority));
        }
        events_.push_back(Key{when, priority, seq, id});
        live_.insert(events_.back());
        check("after a schedule");
    }

    void cancel(std::size_t id)
    {
        bool live = live_.erase(events_[id]) != 0;
        if (handles_[id].cancel() != live)
            fail("cancel() disagrees with the model");
        check("after a cancel");
    }

    /** One random operation from outside any callback. */
    void outsideOp()
    {
        std::uint64_t what = rnd(10);
        if (what < 4) {
            arm(rnd(numTimers));
        } else if (what < 5) {
            disarm(rnd(numTimers));
        } else if (what < 7) {
            schedule(q.now() + static_cast<sim::SimTime>(rnd(60)),
                     rnd(3) == 0);
        } else if (what < 8 && !events_.empty()) {
            cancel(rnd(events_.size()));
        } else {
            reserve();
        }
    }

    /** One step, checked against the model. */
    bool step()
    {
        const std::size_t before = fired_;
        const bool expect = !live_.empty();
        bool ran = q.step();
        if (ran != expect)
            fail("step() disagrees with the model about running");
        if (fired_ != before + (ran ? 1 : 0))
            fail("step() ran no callback or more than one");
        if (q.executed() != fired_)
            fail("executed() disagrees with the model");
        check("after a step");
        return ran;
    }

  private:
    using Key = std::tuple<sim::SimTime, int, std::uint64_t, int>;
    struct Armed
    {
        bool has = false;
        Key key{};
    };

    void fail(const std::string &what)
    {
        if (!failed)
            ADD_FAILURE() << what;
        failed = true;
    }

    void check(const char *where)
    {
        if (q.pending() != live_.size()) {
            fail(std::string("pending() disagrees with the model ") +
                 where + ": " + std::to_string(q.pending()) + " vs " +
                 std::to_string(live_.size()));
        }
        for (std::size_t t = 0; t < numTimers; ++t) {
            if (timers_[t].armed() != armedKey_[t].has)
                fail(std::string("armed() disagrees with the model ") +
                     where);
        }
    }

    std::uint64_t takeSeq()
    {
        std::uint64_t seq = q.reserveSeq();
        if (seq != seqCounter_++)
            fail("reserveSeq out of step with the model");
        return seq;
    }

    std::uint64_t pickReserved()
    {
        std::size_t pick = rnd(reserved_.size());
        std::uint64_t seq = reserved_[pick];
        reserved_.erase(reserved_.begin() +
                        static_cast<std::ptrdiff_t>(pick));
        return seq;
    }

    /** A sequence for a timer arm: an older reserved one now and then,
     *  else a fresh one, as the per-SM timelines take at issue. */
    std::uint64_t pickSeq()
    {
        if (!reserved_.empty() && rnd(4) == 0)
            return pickReserved();
        return takeSeq();
    }

    void fire(int tag)
    {
        ++fired_;
        if (failed)
            return;
        if (live_.empty() || std::get<3>(*live_.begin()) != tag ||
            q.now() != std::get<0>(*live_.begin())) {
            fail((tag < 0 ? "timer " + std::to_string(-1 - tag)
                          : "event " + std::to_string(tag)) +
                 " fired out of the model's order");
            return;
        }
        live_.erase(live_.begin());
        if (tag < 0)
            armedKey_[static_cast<std::size_t>(-1 - tag)].has = false;
        check("in a firing callback");
        if (quiet)
            return;

        // Arm and disarm other timers, schedule heap events at now()
        // (some under older reserved sequences), and, for a timer,
        // re-arm or disarm itself or leave itself alone, in a random
        // order among the rest.
        int self = tag < 0 ? -1 - tag : -1;
        std::uint64_t self_action = self >= 0 ? rnd(3) : 2;
        std::uint64_t ops = rnd(4);
        std::uint64_t self_at = rnd(ops + 1);
        bool self_done = false;
        for (std::uint64_t i = 0; i <= ops; ++i) {
            if (i == self_at && self >= 0) {
                auto t = static_cast<std::size_t>(self);
                if (self_action == 0) {
                    arm(t);
                    ++rearmedSelf;
                } else if (self_action == 1) {
                    disarm(t);
                    ++disarmedSelf;
                } else {
                    ++leftSelf;
                }
                self_done = self_action != 2;
            }
            if (i == ops)
                break;
            std::uint64_t what = rnd(6);
            if (what < 4) {
                std::size_t t = rnd(numTimers);
                if (static_cast<int>(t) == self)
                    continue;
                if (what < 2)
                    arm(t);
                else
                    disarm(t);
                if (self >= 0)
                    ++(self_done ? othersAfterSelf : othersBeforeSelf);
            } else {
                schedule(q.now(), rnd(2) == 0);
            }
        }
        if (rnd(4) == 0)
            reserve();
        check("at the end of a firing callback");
    }

    std::uint64_t lcg_;
    std::uint64_t seqCounter_ = 0; ///< mirrors the queue's counter
    std::size_t fired_ = 0;
    std::vector<EventQueue::Timer> timers_;
    std::vector<int> timerPrio_;
    std::vector<Armed> armedKey_;
    std::vector<Key> events_; ///< by event id
    std::vector<EventQueue::Handle> handles_;
    std::set<Key> live_; ///< firing order of live timers and events
    std::vector<std::uint64_t> reserved_; ///< reserved, not yet used
};

} // namespace

/**
 * Timers and heap events against one ordered-set model: seeded random
 * mixes of 13 timers and heap events, armed, re-armed, disarmed,
 * scheduled and cancelled from outside callbacks and from inside them
 * (a firing timer re-arms itself, disarms itself or does neither,
 * before or after it updates other timers).  Every firing, now(),
 * pending(), executed() and armed() must match the model.
 */
TEST(EventQueueProperty, TimersAndEventsMatchReferenceModel)
{
    int rearmed = 0, disarmed = 0, left = 0, before = 0, after = 0;
    for (std::uint64_t round = 0; round < 24; ++round) {
        TimerModel m(0x2545f4914f6cdd1dull + round);
        for (int op = 0; op < 3000 && !m.failed; ++op) {
            if (m.rnd(3) == 0)
                m.outsideOp();
            else
                m.step();
        }
        m.quiet = true;
        while (m.alive() > 0 && !m.failed)
            ASSERT_TRUE(m.step());
        EXPECT_FALSE(m.failed) << "round " << round;
        EXPECT_FALSE(m.q.step());
        EXPECT_TRUE(m.q.empty());
        rearmed += m.rearmedSelf;
        disarmed += m.disarmedSelf;
        left += m.leftSelf;
        before += m.othersBeforeSelf;
        after += m.othersAfterSelf;
    }
    // Every in-callback path ran often.
    EXPECT_GT(rearmed, 500);
    EXPECT_GT(disarmed, 500);
    EXPECT_GT(left, 500);
    EXPECT_GT(before, 500);
    EXPECT_GT(after, 500);
}
