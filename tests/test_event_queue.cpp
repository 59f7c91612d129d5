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
    auto t1 = q.addTimer([&] { order.push_back(1); });
    auto t2 = q.addTimer([&] { order.push_back(2); });
    // Reserve two sequence numbers, then arm them in reverse order:
    // ties at equal (time, priority) must fire in reservation order,
    // not arming order, and before an event scheduled after both.
    std::uint64_t s1 = q.reserveSeq();
    std::uint64_t s2 = q.reserveSeq();
    t2.arm(5, sim::prioCompletion, s2);
    t1.arm(5, sim::prioCompletion, s1);
    q.schedule(5, [&] { order.push_back(3); }, sim::prioCompletion);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

/**
 * Randomized property test: arbitrary schedule/arm/disarm/step
 * interleavings must fire exactly the events a naive reference model
 * predicts, in exactly the model's (time, priority, seq) order.  Some
 * events are one-shot timers armed under a just-reserved sequence;
 * only those can be disarmed.
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
        std::vector<EventQueue::Timer> timers; // by id; inert for events
        std::vector<int> timed;                // ids carried by a timer
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
                timers.emplace_back();
                if (rnd(4) == 0) {
                    // Exercise the reserve-then-arm path.
                    seq = q.reserveSeq();
                    ASSERT_EQ(seq, seqCounter++);
                    timers.back() =
                        q.addTimer([&fired, id] { fired.push_back(id); });
                    timers.back().arm(when, priority, seq);
                    timed.push_back(id);
                } else {
                    seq = seqCounter++;
                    q.schedule(when, [&fired, id] { fired.push_back(id); },
                               priority);
                }
                model.push_back({when, priority, seq, id, true});
            } else if (what < 8 && !timed.empty()) { // disarm
                auto pick = static_cast<std::size_t>(
                    timed[rnd(timed.size())]);
                EXPECT_EQ(timers[pick].armed(), model[pick].alive);
                timers[pick].disarm();
                EXPECT_FALSE(timers[pick].armed());
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
 * the next event to fire is the set's first element.  An event armed
 * under an older reserved sequence rides one of a pool of timers.
 */
class CallbackModel
{
  public:
    static constexpr std::size_t numTimers = 16;

    explicit CallbackModel(std::uint64_t seed) : lcg_(seed)
    {
        for (std::size_t t = 0; t < numTimers; ++t) {
            timers_.push_back(q.addTimer([this, t] {
                idle_.push_back(t);
                fire(timerEvent_[t]);
            }));
            idle_.push_back(t);
        }
        timerEvent_.assign(numTimers, -1);
    }

    EventQueue q;
    /** Set once a check failed; stops the round without cascading. */
    bool failed = false;
    /** Callbacks stop scheduling (drain phase). */
    bool quiet = false;
    /** Events armed on a timer from inside a firing callback. */
    int armedInCallbacks = 0;

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

    /** Add one event at @p when: on an idle timer under an older
     *  reserved sequence when @p reserved and both are available,
     *  else scheduled on the heap. */
    void add(sim::SimTime when, bool reserved)
    {
        const int prios[] = {sim::prioCompletion, sim::prioDriver,
                             sim::prioPolicy, sim::prioDefault};
        int priority = prios[rnd(4)];
        int id = static_cast<int>(keys_.size());
        std::uint64_t seq;
        if (reserved && !reserved_.empty() && !idle_.empty()) {
            std::size_t pick = rnd(reserved_.size());
            seq = reserved_[pick];
            reserved_.erase(reserved_.begin() +
                            static_cast<std::ptrdiff_t>(pick));
            std::size_t t = idle_.back();
            idle_.pop_back();
            timerEvent_[t] = id;
            timers_[t].arm(when, priority, seq);
            armedInCallbacks += firing_ ? 1 : 0;
        } else {
            seq = seqCounter_++;
            q.schedule(when, [this, id] { fire(id); }, priority);
        }
        keys_.push_back(Key{when, priority, seq, id});
        live_.insert(keys_.back());
        checkPending("after an add");
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

        firing_ = true;
        for (std::uint64_t n = rnd(3); n > 0; --n) {
            sim::SimTime delay =
                rnd(3) == 0 ? 0 : static_cast<sim::SimTime>(rnd(40));
            add(q.now() + delay, rnd(3) == 0);
        }
        firing_ = false;
        if (rnd(4) == 0)
            reserve();
        checkPending("at the end of a firing callback");
    }

    std::uint64_t lcg_;
    std::uint64_t seqCounter_ = 0; ///< mirrors the queue's counter
    std::vector<Key> keys_;        ///< by event id
    std::set<Key> live_;           ///< firing order of live events
    std::vector<EventQueue::Timer> timers_;
    std::vector<int> timerEvent_;         ///< event id each timer carries
    std::vector<std::size_t> idle_;       ///< timers not armed
    std::vector<std::uint64_t> reserved_; ///< reserved, not yet armed
    bool firing_ = false;
};

} // namespace

/**
 * The reference-model property, driven from inside firing callbacks:
 * each adds 0-2 events, some at now and some on a timer under an
 * older reserved sequence (a timer's own callback may re-arm it).
 * Every firing and every pending() must match the model.
 */
TEST(EventQueueProperty, CallbacksThatScheduleMatchReferenceModel)
{
    int armed_in_callbacks = 0;
    for (std::uint64_t round = 0; round < 16; ++round) {
        CallbackModel m(0x9e3779b97f4a7c15ull + round);
        for (int step = 0; step < 2000 && !m.failed; ++step) {
            // Keep a deep queue pending.
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
        armed_in_callbacks += m.armedInCallbacks;
    }
    EXPECT_GT(armed_in_callbacks, 500)
        << "callbacks barely armed timers under older sequences";
}

TEST(EventQueue, TimersFireInKeyOrderWithEvents)
{
    EventQueue q;
    std::vector<int> order;
    auto t1 = q.addTimer([&] { order.push_back(1); });
    auto t2 = q.addTimer([&] { order.push_back(2); });
    EXPECT_FALSE(t1.armed());
    EXPECT_TRUE(q.empty());
    std::uint64_t s1 = q.reserveSeq();
    std::uint64_t s2 = q.reserveSeq();
    t2.arm(5, sim::prioDriver, s1);
    t1.arm(5, sim::prioCompletion, s2);
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
}

TEST(EventQueue, TimerRearmedAtAnotherPriorityOrdersByItsNewKey)
{
    // A timer's priority belongs to each arm, not to the timer: a
    // re-arm at a new priority orders against same-time heap events by
    // the new (time, priority, seq) key.
    EventQueue q;
    std::vector<int> order;
    EventQueue::Timer t;
    int firings = 0;
    t = q.addTimer([&] {
        order.push_back(0);
        // Again at this instant, at policy priority under a fresh
        // sequence: after the older policy event, before the default.
        if (++firings == 1)
            t.arm(q.now(), sim::prioPolicy, q.reserveSeq());
    });
    const std::uint64_t older = q.reserveSeq();
    t.arm(5, sim::prioPolicy, older);
    q.schedule(5, [&] { order.push_back(1); }, sim::prioCompletion);
    q.schedule(5, [&] { order.push_back(2); }, sim::prioDriver);
    q.schedule(5, [&] { order.push_back(3); }, sim::prioPolicy);
    q.schedule(5, [&] { order.push_back(4); }, sim::prioDefault);
    // Re-armed at driver priority under its older sequence: after the
    // completion, before the driver event scheduled later.
    t.arm(5, sim::prioDriver, older);
    for (int i = 0; i < 12 && q.step(); ++i) {
    }
    EXPECT_EQ(order, (std::vector<int>{1, 0, 2, 3, 0, 4}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TimerArmWithAnInvalidKeyPanics)
{
    EventQueue q;
    auto t = q.addTimer([] {});
    q.schedule(10, [] {});
    q.run();
    // In the past, under a sequence never reserved, or at a priority
    // beyond the key's 16 bits.
    EXPECT_THROW(t.arm(5, sim::prioDefault, q.reserveSeq()),
                 sim::PanicError);
    EXPECT_THROW(t.arm(20, sim::prioDefault, q.reserveSeq() + 1),
                 sim::PanicError);
    EXPECT_THROW(t.arm(20, 1 << 15, q.reserveSeq()), sim::PanicError);
    EXPECT_THROW(t.arm(20, -(1 << 15) - 1, q.reserveSeq()),
                 sim::PanicError);
    EXPECT_FALSE(t.armed());
    t.arm(20, -(1 << 15), q.reserveSeq());
    EXPECT_TRUE(t.armed());
}

TEST(EventQueue, SteadyStateTimerRearmAllocatesNothing)
{
    // DESIGN.md §5: a timer re-arming from its own callback, as an SM's
    // timer does after every thread block, allocates nothing.  Thirteen
    // timers, one per SM of the Table 2 GPU, each with a period of its
    // own so the firing order keeps interleaving.
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
            p->timer.arm(q->now() + p->period, sim::prioCompletion,
                         q->reserveSeq());
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
        p.timer = q.addTimer(Rearm{&q, &p});
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
        for (std::size_t t = 0; t < numTimers; ++t) {
            timers_.push_back(
                q.addTimer([this, t] { fire(-1 - static_cast<int>(t)); }));
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

    /** Arm timer @p t at now + delay, at a priority drawn for this
     *  arm, with a fresh or an older reserved sequence. */
    void arm(std::size_t t)
    {
        sim::SimTime when = q.now() +
            (rnd(3) == 0 ? 0 : static_cast<sim::SimTime>(rnd(40)));
        int priority = pickPriority();
        std::uint64_t seq = pickSeq();
        if (armedKey_[t].has)
            live_.erase(armedKey_[t].key);
        armedKey_[t] = {true, Key{when, priority, seq,
                                  -1 - static_cast<int>(t)}};
        live_.insert(armedKey_[t].key);
        timers_[t].arm(when, priority, seq);
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

    /** Schedule a heap event at @p when. */
    void schedule(sim::SimTime when)
    {
        int id = static_cast<int>(events_.size());
        events_.push_back(Key{when, pickPriority(), seqCounter_++, id});
        q.schedule(when, [this, id] { fire(id); },
                   std::get<1>(events_.back()));
        live_.insert(events_.back());
        check("after a schedule");
    }

    /** One random operation from outside any callback. */
    void outsideOp()
    {
        std::uint64_t what = rnd(10);
        if (what < 4) {
            arm(rnd(numTimers));
        } else if (what < 5) {
            disarm(rnd(numTimers));
        } else if (what < 8) {
            schedule(q.now() + static_cast<sim::SimTime>(rnd(60)));
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

    int pickPriority()
    {
        const int prios[] = {sim::prioCompletion, sim::prioDriver,
                             sim::prioPolicy, sim::prioDefault};
        return prios[rnd(4)];
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

        // Arm and disarm other timers, schedule heap events at now(),
        // and, for a timer,
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
                schedule(q.now());
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
    std::vector<Armed> armedKey_;
    std::vector<Key> events_; ///< by event id
    std::set<Key> live_; ///< firing order of live timers and events
    std::vector<std::uint64_t> reserved_; ///< reserved, not yet used
};

} // namespace

/**
 * Timers and heap events against one ordered-set model: seeded random
 * mixes of 13 timers and heap events, armed (each arm at a priority
 * of its own), re-armed, disarmed and scheduled from outside callbacks
 * and from inside them (a firing timer re-arms itself, disarms itself
 * or does neither, before or after it updates other timers).  Every
 * firing, now(), pending(), executed() and armed() must match the
 * model.
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
