/**
 * @file
 * Discrete-event core: a deterministic event queue with re-armable
 * timers.
 *
 * The whole simulator is single threaded and driven by one EventQueue.
 * Determinism guarantees:
 *  - events fire in nondecreasing time order;
 *  - events at the same time fire in ascending priority value;
 *  - events with equal (time, priority) fire in ascending sequence
 *    number (scheduling order, unless a timer was armed under a
 *    sequence number reserved earlier — see reserveSeq / Timer::arm).
 *
 * There are two kinds of event.  A scheduled event is fire-and-forget:
 * once scheduled it runs.  A timer (EventQueue::Timer) is the one kind
 * that can be revoked: preemption disarms an SM's timer to halt the
 * thread blocks that are context-switched out, and an SM handed over
 * during setup disarms its pending setup.  Both kinds fire under the
 * same (time, priority, seq) order.
 *
 * The engine is allocation-free on the hot path: callbacks live in a
 * small-buffer-optimized storage (no heap for captures up to
 * EventCallback::inlineBytes), scheduled events keep theirs in a slab
 * of recycled slots, and queue entries are POD.
 */

#ifndef GPUMP_SIM_EVENT_HH
#define GPUMP_SIM_EVENT_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/audit.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace gpump {
namespace sim {

/**
 * Priority values for simultaneous events.  Lower fires first.
 *
 * The ordering encodes the hardware's intra-cycle precedence: state
 * updates (completions) are observed before the logic that reacts to
 * them (drivers, policies) runs, and generic callbacks go last.
 */
enum EventPriority : int
{
    prioCompletion = 0, ///< engine/TB completions, state becomes visible
    prioDriver = 10,    ///< SM driver / dispatcher reactions
    prioPolicy = 20,    ///< scheduling policy invocations
    prioDefault = 30,   ///< everything else
};

/**
 * Move-only `void()` callable with small-buffer optimization.
 *
 * Every event callback in the simulator captures a handful of
 * pointers (and occasionally one small vector); those are stored
 * inline, so scheduling an event performs no heap allocation.
 * Larger or alignment-exotic callables fall back to the heap
 * transparently.
 */
class EventCallback
{
  public:
    /** Inline capacity: two pointers' worth of captures — what the
     *  simulator's hot-path callbacks (completion, setup, driver)
     *  actually carry.  Rarer, fatter captures (a transfer command's
     *  shared_ptr, a preemption's saved-TB vector) take the heap
     *  fallback; with a 16-byte buffer the whole callback is 24
     *  bytes and an event slot packs two to a cache line. */
    static constexpr std::size_t inlineBytes = 16;
    /** Captures are pointer-aligned; anything stricter goes to the
     *  heap fallback. */
    static constexpr std::size_t inlineAlign = 8;

    EventCallback() noexcept = default;
    EventCallback(std::nullptr_t) noexcept {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventCallback> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    EventCallback(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
            ops_ = &inlineOps<Fn>;
        } else {
            ::new (static_cast<void *>(buf_))
                Fn *(new Fn(std::forward<F>(f)));
            ops_ = &heapOps<Fn>;
        }
    }

    EventCallback(EventCallback &&other) noexcept { moveFrom(other); }

    EventCallback &operator=(EventCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    EventCallback &operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    ~EventCallback() { reset(); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    friend bool operator==(const EventCallback &f, std::nullptr_t) noexcept
    {
        return f.ops_ == nullptr;
    }
    friend bool operator!=(const EventCallback &f, std::nullptr_t) noexcept
    {
        return f.ops_ != nullptr;
    }

    /** Invoke the target.  @pre non-null. */
    void operator()() { ops_->invoke(buf_); }

  private:
    /**
     * Dispatch table.  relocate == nullptr marks a target that is
     * relocated by plain memcpy (trivially-copyable captures — the
     * overwhelmingly common case — and the heap fallback's raw
     * pointer), which keeps moves free of indirect calls; destroy ==
     * nullptr marks a target whose destruction is a no-op.
     */
    struct Ops
    {
        void (*invoke)(void *storage);
        /** Move the target from @p src storage into @p dst storage and
         *  destroy the source; nullptr = memcpy suffices. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *storage); ///< nullptr = no-op
    };

    template <typename Fn>
    static constexpr bool fitsInline()
    {
        return sizeof(Fn) <= inlineBytes && alignof(Fn) <= inlineAlign &&
            std::is_nothrow_move_constructible_v<Fn>;
    }

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](void *s) { (*static_cast<Fn *>(s))(); },
        std::is_trivially_copyable_v<Fn>
            ? nullptr
            : +[](void *dst, void *src) {
                  ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
                  static_cast<Fn *>(src)->~Fn();
              },
        std::is_trivially_destructible_v<Fn>
            ? nullptr
            : +[](void *s) { static_cast<Fn *>(s)->~Fn(); },
    };

    template <typename Fn>
    static constexpr Ops heapOps = {
        [](void *s) { (**static_cast<Fn **>(s))(); },
        nullptr, // the stored pointer relocates by memcpy
        [](void *s) { delete *static_cast<Fn **>(s); },
    };

    void reset() noexcept
    {
        if (ops_) {
            if (ops_->destroy)
                ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    void moveFrom(EventCallback &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_) {
            if (ops_->relocate)
                ops_->relocate(buf_, other.buf_);
            else
                __builtin_memcpy(buf_, other.buf_, inlineBytes);
            other.ops_ = nullptr;
        }
    }

    alignas(inlineAlign) unsigned char buf_[inlineBytes];
    const Ops *ops_ = nullptr;
};

/**
 * Deterministic event queue: fire-and-forget scheduled events with
 * O(log n) ordering work each, plus re-armable timers.
 *
 * Internals (see DESIGN.md §5): scheduled events keep their callbacks
 * in a slab of slots recycled through a free list, ordered by a
 * binary min-heap of 24-byte POD entries referencing slots by index.
 *
 * A timer is the other kind of event, and the only one that can be
 * revoked: a callback fixed at creation, armed under at most one
 * (time, priority, seq) key at a time.  Armed timer keys live in a
 * winner tree beside the heap, so re-arming one costs a fixed walk
 * from its leaf to the root and no slot, callback move or sift.
 * step() fires whichever of the heap front and the tree root holds
 * the earlier key; live keys are unique across both, so the firing
 * order is the one a single structure would give.
 */
class EventQueue
{
  public:
    using Callback = EventCallback;

    /**
     * A re-armable timer, as returned by addTimer().
     *
     * The callback is fixed when the timer is added; each arm() sets
     * the (time, priority, sequence) it fires at next, replacing any
     * armed key.  Firing disarms the timer, and its callback may arm it
     * again.  A default-constructed Timer is inert (armed() is
     * false).  The timer lives as long as its queue.
     */
    class Timer
    {
      public:
        Timer() = default;

        /**
         * Arm the timer to fire at @p when with @p priority under the
         * reserved sequence @p seq, replacing its armed key if it has
         * one.
         * @pre when >= now(), priority fits 16 bits and seq was
         *      obtained from reserveSeq()
         */
        void arm(SimTime when, int priority, std::uint64_t seq)
        {
            queue_->armTimer(id_, when, priority, seq);
        }

        /** Disarm the timer; a no-op when it is not armed. */
        void disarm() { queue_->disarmTimer(id_); }

        /** True while armed: armed and not yet fired or disarmed. */
        bool armed() const
        {
            return queue_ != nullptr && queue_->timerArmed(id_);
        }

      private:
        friend class EventQueue;
        Timer(EventQueue *queue, std::uint32_t id) : queue_(queue), id_(id)
        {
        }

        EventQueue *queue_ = nullptr;
        std::uint32_t id_ = 0;
    };

    EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    SimTime now() const { return now_; }

    /**
     * Schedule @p cb to run at absolute time @p when.
     * @pre when >= now()
     */
    void schedule(SimTime when, Callback cb, int priority = prioDefault);

    /** Schedule @p cb to run @p delay after now. @pre delay >= 0 */
    void scheduleIn(SimTime delay, Callback cb, int priority = prioDefault);

    /**
     * Reserve the next FIFO sequence number without scheduling.
     *
     * Callers that coalesce many logical events behind one timer (the
     * per-SM completion timeline) reserve one sequence number per
     * logical event at the instant the old design would have scheduled
     * it, then arm the timer with it.  Ties at equal (time, priority)
     * then resolve exactly as if every logical event had been
     * scheduled individually, which keeps simulations bit-identical.
     */
    std::uint64_t reserveSeq() { return seq_++; }

    /**
     * Add a re-armable timer that runs @p cb each time it fires.  It
     * starts disarmed.  Timer ids are dense, and adding one is setup
     * work (the tree is rebuilt when it doubles); a timer callback
     * must not add timers.
     */
    Timer addTimer(Callback cb);

    /** Number of live events: scheduled events not yet run, plus
     *  armed timers.  O(1). */
    std::size_t pending() const { return heap_.size() + armedTimers_; }

    /** True when no live events remain.  O(1). */
    bool empty() const { return pending() == 0; }

    /**
     * Run the next live event.
     * @return false when no live event remains.
     */
    bool step();

    /**
     * Run events until the queue drains or the next event lies beyond
     * @p limit (events exactly at @p limit run).
     *
     * @return the current time after the last executed event.
     */
    SimTime run(SimTime limit = maxTime);

    /** Total number of events executed since construction, timer
     *  firings included. */
    std::uint64_t executed() const { return executed_; }

    /** Slab cells ever allocated (observability for tests of slot
     *  recycling; steady-state workloads plateau at their peak
     *  concurrent event count).  Timers hold none. */
    std::size_t slotsAllocated() const { return slots_.size(); }

#if GPUMP_AUDIT_ENABLED
    /** Test hook (audit builds only): deliberately corrupt the firing
     *  key of the next pending heap entry so the firing-order audit
     *  in step() trips.  Exists so tests/test_audit.cpp can prove the
     *  audit layer detects a corrupted queue; never compiled into
     *  default builds.  @pre at least one live entry is pending. */
    void auditCorruptFrontKeyForTest();
#endif

  private:
    /**
     * POD heap entry; the callback lives in the slot slab.
     *
     * The (when, priority, seq) firing key is packed into two 64-bit
     * words — keyHi = when, keyLo = biased 16-bit priority over a
     * 48-bit sequence — so entries are 24 bytes and the comparison is
     * two branch-free integer compares, which matters enormously in
     * the sift loops (comparisons on random keys mispredict).
     */
    struct Entry
    {
        std::uint64_t keyHi;
        std::uint64_t keyLo;
        std::uint32_t slot;

        SimTime when() const { return static_cast<SimTime>(keyHi); }
    };

    /** Half the biased priority range; priorities must fit 16 bits. */
    static constexpr int priorityBias = 1 << 15;
    /** Sequence numbers occupy the low 48 bits of keyLo. */
    static constexpr std::uint64_t maxSeq = (1ull << 48) - 1;

    /** One slab cell: callback storage + free-list link. */
    struct Slot
    {
        Callback callback;
        std::uint32_t nextFree = 0;
    };

    /** True when key (hi1, lo1) fires strictly before (hi2, lo2).
     *  Written with bitwise operators so both compares evaluate
     *  unconditionally and feed conditional moves, not branches. */
    static bool keyBefore(std::uint64_t hi1, std::uint64_t lo1,
                          std::uint64_t hi2, std::uint64_t lo2)
    {
        return bool(hi1 < hi2) | (bool(hi1 == hi2) & bool(lo1 < lo2));
    }

    /** The priority half of keyLo. */
    static std::uint64_t priorityBits(int priority)
    {
        return static_cast<std::uint64_t>(
                   static_cast<std::uint32_t>(priority + priorityBias))
            << 48;
    }

    /** Heap comparator.  The std heap algorithms keep the greatest
     *  element on top, so "greater" has to mean "fires earlier". */
    struct FiresAfter
    {
        bool operator()(const Entry &a, const Entry &b) const
        {
            return keyBefore(b.keyHi, b.keyLo, a.keyHi, a.keyLo);
        }
    };

    std::uint32_t acquireSlot(Callback &&cb);
    void releaseSlot(std::uint32_t slot);

    /** Pop the heap front and run its callback: the caller checked the
     *  heap is not empty and its front fires before the tree root. */
    void fireEntry();

    /** @name The timer tree
     *
     * A winner (tournament) tree over timer ids: leaf timerLeaves_ + id
     * holds timer id's armed key, or the key "never" when it is
     * disarmed, and every internal node i holds a copy of the
     * (keyHi, keyLo, id) of the earliest leaf below it, so node 1, the
     * root, is the next timer to fire.  The leaf count is padded to a
     * power of two.  While a timer's callback runs, the keys on its
     * path are stale (see fireTimer).
     * @{ */
    struct TimerNode
    {
        std::uint64_t keyHi;
        std::uint64_t keyLo;
        std::uint64_t id;
    };

    /** The key of a disarmed leaf: after every real key. */
    static constexpr std::uint64_t neverKey = ~0ull;
    static constexpr std::uint32_t noTimer = 0xffffffffu;

    bool timerArmed(std::uint32_t id) const
    {
        return tree_[timerLeaves_ + id].keyHi != neverKey;
    }

    /** Inlined, so the priority range check folds away where the
     *  caller passes a constant priority. */
    void armTimer(std::uint32_t id, SimTime when, int priority,
                  std::uint64_t seq)
    {
        GPUMP_ASSERT(when >= now_,
                     "timer armed in the past (when=%lld now=%lld)",
                     static_cast<long long>(when),
                     static_cast<long long>(now_));
        GPUMP_ASSERT(priority >= -priorityBias && priority < priorityBias,
                     "timer priority %d outside the 16-bit key range",
                     priority);
        GPUMP_ASSERT(seq < seq_, "sequence %llu was never reserved",
                     static_cast<unsigned long long>(seq));
        GPUMP_ASSERT(seq <= maxSeq, "sequence space exhausted");
        armedTimers_ += timerArmed(id) ? 0 : 1;
        firingStale_ = firingStale_ && id != firing_;
        updateTimerPath(id, static_cast<std::uint64_t>(when),
                        priorityBits(priority) | seq);
    }

    void disarmTimer(std::uint32_t id)
    {
        const bool armed = timerArmed(id);
        const bool stale = firingStale_ && id == firing_;
        if (!armed && !stale)
            return;
        armedTimers_ -= armed ? 1 : 0;
        firingStale_ = firingStale_ && !stale;
        updateTimerPath(id, neverKey, neverKey);
    }

    /**
     * Write leaf @p id's key and recompute every node on its path to
     * the root.  The path is fixed by the id; only the carried winner
     * depends on the compares, so each level selects it with masks
     * instead of a data-dependent branch, and no node is read back
     * after it was written.
     */
    void updateTimerPath(std::uint32_t id, std::uint64_t hi,
                         std::uint64_t lo)
    {
        TimerNode *tree = tree_.data();
        std::size_t i = timerLeaves_ + id;
        std::uint64_t win = id;
        tree[i] = TimerNode{hi, lo, win};
        while (i > 1) {
            const TimerNode &sib = tree[i ^ 1];
            const std::uint64_t m = 0 -
                static_cast<std::uint64_t>(
                    keyBefore(sib.keyHi, sib.keyLo, hi, lo));
            hi = (sib.keyHi & m) | (hi & ~m);
            lo = (sib.keyLo & m) | (lo & ~m);
            win = (sib.id & m) | (win & ~m);
            i >>= 1;
            tree[i] = TimerNode{hi, lo, win};
        }
#if GPUMP_AUDIT_ENABLED
        if (!firingStale_)
            auditTimerRoot();
#endif
    }

    /** Fire the timer at the tree root: the caller checked it is armed
     *  and fires before the heap front. */
    void fireTimer();
    void growTimerTree();
#if GPUMP_AUDIT_ENABLED
    /** The root equals the earliest armed leaf found by a linear scan
     *  (O(timers)). */
    void auditTimerRoot() const;
#endif
    /** @} */

    SimTime now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;

    /** Binary heap under FiresAfter: heap_.front() fires next. */
    std::vector<Entry> heap_;

    std::vector<Slot> slots_;
    static constexpr std::uint32_t noSlot = 0xffffffffu;
    std::uint32_t freeHead_ = noSlot;

    /** Timer callbacks, by id. */
    std::vector<Callback> timers_;
    /** The winner tree: node 0 unused, node 1 the root, leaves from
     *  timerLeaves_ on. */
    std::vector<TimerNode> tree_;
    std::size_t timerLeaves_ = 1;
    std::size_t armedTimers_ = 0;
    /** The timer whose callback is running, or noTimer. */
    std::uint32_t firing_ = noTimer;
    /** True while firing_'s path still carries the key it fired at. */
    bool firingStale_ = false;
};

} // namespace sim
} // namespace gpump

#endif // GPUMP_SIM_EVENT_HH
