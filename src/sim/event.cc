#include "sim/event.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace gpump {
namespace sim {

namespace {

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
    // Slab sanity: a released slot must be a real slab cell and must
    // not still hold a callback (firing moves it out first, so a live
    // callback here means a double release).
    GPUMP_AUDIT(slot < slots_.size(),
                "slot %u released beyond the %zu-cell slab",
                slot, slots_.size());
    GPUMP_AUDIT(slots_[slot].callback == nullptr,
                "slot %u released while it still holds a callback "
                "(double release)", slot);
    slots_[slot].nextFree = freeHead_;
    freeHead_ = slot;
}

void
EventQueue::schedule(SimTime when, Callback cb, int priority)
{
    GPUMP_ASSERT(when >= now_,
                 "event scheduled in the past (when=%lld now=%lld)",
                 static_cast<long long>(when), static_cast<long long>(now_));
    GPUMP_ASSERT(cb != nullptr, "event scheduled with null callback");
    GPUMP_ASSERT(priority >= -priorityBias && priority < priorityBias,
                 "event priority %d outside the 16-bit key range",
                 priority);
    GPUMP_ASSERT(seq_ <= maxSeq, "sequence space exhausted");

    const std::uint32_t slot = acquireSlot(std::move(cb));
    heap_.push_back(Entry{static_cast<std::uint64_t>(when),
                          priorityBits(priority) | seq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), FiresAfter());
    // The heap property holds after every push.  O(n) — audit builds
    // trade throughput for machine-checked structure.
    GPUMP_AUDIT(std::is_heap(heap_.begin(), heap_.end(), FiresAfter()),
                "event heap out of order after a schedule (when=%lld)",
                static_cast<long long>(when));
}

void
EventQueue::scheduleIn(SimTime delay, Callback cb, int priority)
{
    GPUMP_ASSERT(delay >= 0, "negative event delay %lld",
                 static_cast<long long>(delay));
    schedule(now_ + delay, std::move(cb), priority);
}

EventQueue::Timer
EventQueue::addTimer(Callback cb)
{
    GPUMP_ASSERT(cb != nullptr, "timer added with a null callback");
    // A callback runs in place in timers_, which must not move under it.
    GPUMP_ASSERT(firing_ == noTimer, "timer added from a timer callback");
    GPUMP_ASSERT(timers_.size() < noTimer, "timer ids exhausted");
    const auto id = static_cast<std::uint32_t>(timers_.size());
    timers_.push_back(std::move(cb));
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
    timers_[id]();
    firing_ = noTimer;
    if (firingStale_) {
        firingStale_ = false;
        updateTimerPath(id, neverKey, neverKey);
    }
}

void
EventQueue::fireEntry()
{
    const Entry top = heap_.front();
    // The queue's headline guarantee, checked at the moment it could
    // break: events fire in nondecreasing time order.
    GPUMP_AUDIT(top.when() >= now_,
                "event fires at %lld but time already reached %lld "
                "(firing order violated)",
                static_cast<long long>(top.when()),
                static_cast<long long>(now_));
    GPUMP_AUDIT(slots_[top.slot].callback != nullptr,
                "front entry's slot %u has no callback "
                "(slab bookkeeping corrupt)", top.slot);
    now_ = top.when();
    Callback cb = std::move(slots_[top.slot].callback);
    releaseSlot(top.slot);
    std::pop_heap(heap_.begin(), heap_.end(), FiresAfter());
    heap_.pop_back();
    ++executed_;
    cb();
}

bool
EventQueue::step()
{
    const TimerNode &root = tree_[1];
    if (!heap_.empty() &&
        !keyBefore(root.keyHi, root.keyLo, heap_.front().keyHi,
                   heap_.front().keyLo)) {
        fireEntry();
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
    GPUMP_ASSERT(!heap_.empty(),
                 "no pending entry to corrupt for the audit test");
    // Zero the front's firing key so the next step() sees an event
    // "before" the current time and the firing-order audit trips.
    heap_.front().keyHi = 0;
}
#endif

SimTime
EventQueue::run(SimTime limit)
{
    for (;;) {
        const TimerNode &root = tree_[1];
        if (!heap_.empty() &&
            !keyBefore(root.keyHi, root.keyLo, heap_.front().keyHi,
                       heap_.front().keyLo)) {
            if (heap_.front().when() > limit)
                break;
            fireEntry();
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
