#include "sim/event.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace gpump {
namespace sim {

namespace {

/** Compaction only pays off once the queue is big enough to matter. */
constexpr std::size_t compactionMinEntries = 64;

/** Initial capacity of the slab and the heap: growing a vector of
 *  live slots relocates every callback, so start big enough that
 *  typical runs never pay it. */
constexpr std::size_t initialCapacity = 128;

} // namespace

EventQueue::EventQueue()
{
    slots_.reserve(initialCapacity);
    heap_.reserve(initialCapacity);
    // One leaf, which is also the root, and no timer behind it yet.
    tree_.assign(2, TimerNode{neverKey, neverKey, 0});
}

std::uint32_t
EventQueue::acquireSlot(Callback &&cb)
{
    std::uint32_t slot;
    if (freeHead_ != noSlot) {
        slot = freeHead_;
        freeHead_ = slots_[slot].nextFree;
    } else {
        GPUMP_ASSERT(slots_.size() < noSlot, "event slot slab exhausted");
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    slots_[slot].callback = std::move(cb);
    return slot;
}

void
EventQueue::releaseSlot(std::uint32_t slot)
{
    // Slab-generation sanity: a released slot must be a real slab cell
    // and must not still hold a callback (cancel/step clear it first,
    // so a live callback here means a double release).
    GPUMP_AUDIT(slot < slots_.size(),
                "slot %u released beyond the %zu-cell slab",
                slot, slots_.size());
    GPUMP_AUDIT(slots_[slot].callback == nullptr,
                "slot %u released while its callback is still armed "
                "(double release or missed cancel)", slot);
    slots_[slot].nextFree = freeHead_;
    freeHead_ = slot;
}

void
EventQueue::cancelSlot(std::uint32_t slot)
{
    // Invalidate the entry (and all handles) by bumping the
    // generation, and release the captures right away.  The slot is
    // recycled when its dead entry is popped over or compacted out.
    GPUMP_AUDIT(slot < slots_.size(),
                "cancel of slot %u beyond the %zu-cell slab", slot,
                slots_.size());
    GPUMP_AUDIT(slots_[slot].gen != ~0u,
                "slot %u generation counter about to wrap "
                "(stale handles would revalidate)", slot);
    ++slots_[slot].gen;
    slots_[slot].callback = nullptr;
    ++deadEntries_;
    compactIfWorthIt();
}

void
EventQueue::compactIfWorthIt()
{
    // Sweep dead entries once they outnumber the live ones; otherwise
    // a cancelled far-future event would occupy the queue until its
    // timestamp came up, which for workloads that cancel most of what
    // they schedule (preemption-heavy runs) means unbounded growth.
    if (heapEntries() < compactionMinEntries ||
        deadEntries_ * 2 <= heapEntries())
        return;
    auto live_end = std::remove_if(
        heap_.begin(), heap_.end(), [this](const Entry &e) {
            if (!entryDead(e))
                return false;
            releaseSlot(e.slot);
            return true;
        });
    heap_.erase(live_end, heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), FiresAfter());
    deadEntries_ = 0;
}

void
EventQueue::popFront()
{
    std::pop_heap(heap_.begin(), heap_.end(), FiresAfter());
    heap_.pop_back();
}

const EventQueue::Entry *
EventQueue::peekFront()
{
    while (!heap_.empty()) {
        const Entry &e = heap_.front();
        if (!entryDead(e))
            return &e;
        releaseSlot(e.slot);
        popFront();
        --deadEntries_;
    }
    return nullptr;
}

EventQueue::Handle
EventQueue::schedule(SimTime when, Callback cb, int priority)
{
    return doSchedule(when, seq_++, std::move(cb), priority);
}

EventQueue::Handle
EventQueue::scheduleWithSeq(SimTime when, std::uint64_t seq, Callback cb,
                            int priority)
{
    GPUMP_ASSERT(seq < seq_, "sequence %llu was never reserved",
                 static_cast<unsigned long long>(seq));
    return doSchedule(when, seq, std::move(cb), priority);
}

EventQueue::Handle
EventQueue::doSchedule(SimTime when, std::uint64_t seq, Callback &&cb,
                       int priority)
{
    GPUMP_ASSERT(when >= now_,
                 "event scheduled in the past (when=%lld now=%lld)",
                 static_cast<long long>(when), static_cast<long long>(now_));
    GPUMP_ASSERT(cb != nullptr, "event scheduled with null callback");
    GPUMP_ASSERT(priority >= -priorityBias && priority < priorityBias,
                 "event priority %d outside the 16-bit key range",
                 priority);
    GPUMP_ASSERT(seq <= maxSeq, "sequence space exhausted");

    const std::uint32_t slot = acquireSlot(std::move(cb));
    heap_.push_back(Entry{static_cast<std::uint64_t>(when),
                          priorityBits(priority) | seq, slot,
                          slots_[slot].gen});
    std::push_heap(heap_.begin(), heap_.end(), FiresAfter());
    // The heap property holds after every push.  O(n) — audit builds
    // trade throughput for machine-checked structure.
    GPUMP_AUDIT(std::is_heap(heap_.begin(), heap_.end(), FiresAfter()),
                "event heap out of order after a schedule (when=%lld)",
                static_cast<long long>(when));
    return Handle(this, slot, slots_[slot].gen);
}

EventQueue::Handle
EventQueue::scheduleIn(SimTime delay, Callback cb, int priority)
{
    GPUMP_ASSERT(delay >= 0, "negative event delay %lld",
                 static_cast<long long>(delay));
    return schedule(now_ + delay, std::move(cb), priority);
}

EventQueue::Timer
EventQueue::addTimer(Callback cb, int priority)
{
    GPUMP_ASSERT(cb != nullptr, "timer added with a null callback");
    GPUMP_ASSERT(priority >= -priorityBias && priority < priorityBias,
                 "timer priority %d outside the 16-bit key range",
                 priority);
    // A callback runs in place in timers_, which must not move under it.
    GPUMP_ASSERT(firing_ == noTimer, "timer added from a timer callback");
    GPUMP_ASSERT(timers_.size() < noTimer, "timer ids exhausted");
    const auto id = static_cast<std::uint32_t>(timers_.size());
    timers_.push_back(TimerSlot{std::move(cb), priorityBits(priority)});
    if (id == timerLeaves_)
        growTimerTree();
    return Timer(this, id);
}

void
EventQueue::growTimerTree()
{
    // Double the leaves, carry the armed keys over and rebuild every
    // internal node bottom-up.  Setup work: timers are added once.
    const std::size_t leaves = 2 * timerLeaves_;
    std::vector<TimerNode> tree(2 * leaves);
    for (std::size_t id = 0; id < leaves; ++id) {
        tree[leaves + id] = id < timerLeaves_
            ? tree_[timerLeaves_ + id]
            : TimerNode{neverKey, neverKey, id};
    }
    for (std::size_t i = leaves - 1; i >= 1; --i) {
        const TimerNode &l = tree[2 * i];
        const TimerNode &r = tree[2 * i + 1];
        tree[i] = keyBefore(r.keyHi, r.keyLo, l.keyHi, l.keyLo) ? r : l;
    }
    tree_ = std::move(tree);
    timerLeaves_ = leaves;
}

#if GPUMP_AUDIT_ENABLED
void
EventQueue::auditTimerRoot() const
{
    TimerNode min{neverKey, neverKey, 0};
    for (std::size_t id = 0; id < timers_.size(); ++id) {
        const TimerNode &leaf = tree_[timerLeaves_ + id];
        if (keyBefore(leaf.keyHi, leaf.keyLo, min.keyHi, min.keyLo))
            min = leaf;
    }
    const TimerNode &root = tree_[1];
    GPUMP_AUDIT(root.keyHi == min.keyHi && root.keyLo == min.keyLo &&
                    (min.keyHi == neverKey || root.id == min.id),
                "timer tree root (timer %llu at %llu) is not the earliest "
                "armed leaf (timer %llu at %llu)",
                static_cast<unsigned long long>(root.id),
                static_cast<unsigned long long>(root.keyHi),
                static_cast<unsigned long long>(min.id),
                static_cast<unsigned long long>(min.keyHi));
}
#endif

void
EventQueue::fireTimer()
{
    const TimerNode root = tree_[1];
    const auto id = static_cast<std::uint32_t>(root.id);
    GPUMP_AUDIT(static_cast<SimTime>(root.keyHi) >= now_,
                "timer %u fires at %lld but time already reached %lld "
                "(firing order violated)", id,
                static_cast<long long>(root.keyHi),
                static_cast<long long>(now_));
    now_ = static_cast<SimTime>(root.keyHi);
    // Disarm the leaf only.  Its ancestors keep the fired key until the
    // path is repaired: by the callback's own arm() or disarm(), which
    // walks the path anyway, or else below once the callback returns.
    // Other timers' walks in the meantime may copy the fired key, but
    // only into ancestors of this leaf, and the repair recomputes every
    // one of them from siblings off the path, so it must come last.
    TimerNode &leaf = tree_[timerLeaves_ + id];
    leaf.keyHi = neverKey;
    leaf.keyLo = neverKey;
    --armedTimers_;
    ++executed_;
    firing_ = id;
    firingStale_ = true;
    timers_[id].callback();
    firing_ = noTimer;
    if (firingStale_) {
        firingStale_ = false;
        updateTimerPath(id, neverKey, neverKey);
    }
}

void
EventQueue::fireEntry(const Entry *front)
{
    const Entry top = *front;
    // The queue's headline guarantee, checked at the moment it could
    // break: events fire in nondecreasing time order.
    GPUMP_AUDIT(top.when() >= now_,
                "event fires at %lld but time already reached %lld "
                "(firing order violated)",
                static_cast<long long>(top.when()),
                static_cast<long long>(now_));
    GPUMP_AUDIT(slots_[top.slot].callback != nullptr,
                "front entry's slot %u has no callback "
                "(generation bookkeeping corrupt)", top.slot);
    now_ = top.when();
    ++slots_[top.slot].gen; // the event is no longer pending
    Callback cb = std::move(slots_[top.slot].callback);
    releaseSlot(top.slot);
    popFront();
    ++executed_;
    cb();
}

bool
EventQueue::step()
{
    const Entry *front = peekFront();
    const TimerNode &root = tree_[1];
    if (front != nullptr &&
        !keyBefore(root.keyHi, root.keyLo, front->keyHi, front->keyLo)) {
        fireEntry(front);
        return true;
    }
    if (root.keyHi == neverKey)
        return false;
    fireTimer();
    return true;
}

#if GPUMP_AUDIT_ENABLED
void
EventQueue::auditCorruptFrontKeyForTest()
{
    const Entry *front = peekFront();
    GPUMP_ASSERT(front != nullptr,
                 "no pending entry to corrupt for the audit test");
    // peekFront() leaves the live front at the top of the heap; zero
    // its firing key so the next step() sees an event "before" the
    // current time and the firing-order audit trips.
    heap_.front().keyHi = 0;
}
#endif

SimTime
EventQueue::run(SimTime limit)
{
    for (;;) {
        const Entry *front = peekFront();
        const TimerNode &root = tree_[1];
        if (front != nullptr &&
            !keyBefore(root.keyHi, root.keyLo, front->keyHi,
                       front->keyLo)) {
            if (front->when() > limit)
                break;
            fireEntry(front);
        } else {
            if (root.keyHi == neverKey ||
                static_cast<SimTime>(root.keyHi) > limit)
                break;
            fireTimer();
        }
    }
    return now_;
}

} // namespace sim
} // namespace gpump
