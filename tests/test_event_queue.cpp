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
     *  schedule, i.e. while its entry was still the spent root. */
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
 * compact the queue while the firing event's entry is still the spent
 * heap root.  Every firing and every pending() must match the model.
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
