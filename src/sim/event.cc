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
    spentRoot_ = false; // a spent root was dead and went with the rest
}

void
EventQueue::popFront()
{
    std::pop_heap(heap_.begin(), heap_.end(), FiresAfter());
    heap_.pop_back();
}

void
EventQueue::siftDownRoot()
{
    const std::size_t n = heap_.size();
    const Entry e = heap_.front();
    std::size_t hole = 0;
    for (;;) {
        std::size_t child = 2 * hole + 1;
        if (child >= n)
            break;
        if (child + 1 < n &&
            keyBefore(heap_[child + 1].keyHi, heap_[child + 1].keyLo,
                      heap_[child].keyHi, heap_[child].keyLo))
            ++child;
        if (!keyBefore(heap_[child].keyHi, heap_[child].keyLo, e.keyHi,
                       e.keyLo))
            break;
        heap_[hole] = heap_[child];
        hole = child;
    }
    heap_[hole] = e;
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
        spentRoot_ = false; // a spent root is the root while it exists
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

    std::uint64_t key_lo =
        (static_cast<std::uint64_t>(
             static_cast<std::uint32_t>(priority + priorityBias))
         << 48) |
        seq;
    std::uint32_t slot;
    if (spentRoot_) {
        // First schedule from a firing callback: take over the spent
        // root.  Its slot goes back to the free list and comes straight
        // out again, and one sift-down replaces a pop plus a push.
        spentRoot_ = false;
        --deadEntries_;
        releaseSlot(heap_.front().slot);
        slot = acquireSlot(std::move(cb));
        heap_.front() = Entry{static_cast<std::uint64_t>(when), key_lo,
                              slot, slots_[slot].gen};
        siftDownRoot();
    } else {
        slot = acquireSlot(std::move(cb));
        heap_.push_back(Entry{static_cast<std::uint64_t>(when), key_lo,
                              slot, slots_[slot].gen});
        std::push_heap(heap_.begin(), heap_.end(), FiresAfter());
    }
    // The heap property holds after every push and root replacement.
    // O(n) — audit builds trade throughput for machine-checked
    // structure.
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

bool
EventQueue::step()
{
    const Entry *front = peekFront();
    if (front == nullptr)
        return false;
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
    // Leave the consumed entry at the root, dead, for the callback's
    // first schedule to take over (doSchedule).  Its key is forced to
    // the minimum so nothing the callback schedules can rise above it.
    heap_.front().keyHi = 0;
    heap_.front().keyLo = 0;
    ++deadEntries_;
    spentRoot_ = true;
    ++executed_;
    cb();
    if (spentRoot_) { // the callback scheduled nothing
        spentRoot_ = false;
        --deadEntries_;
        releaseSlot(heap_.front().slot);
        popFront();
    }
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
        if (front == nullptr || front->when() > limit)
            break;
        // step()'s re-peek is O(1): the front was just validated.
        step();
    }
    return now_;
}

} // namespace sim
} // namespace gpump
