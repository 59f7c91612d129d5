#include "gpu/sm.hh"

#include <algorithm>

#include "core/audit.hh"
#include "gpu/kernel_exec.hh"
#include "sim/logging.hh"

namespace gpump {
namespace gpu {

int
Sm::freeSlots() const
{
    if (!kernel || reserved || state == State::Saving)
        return 0;
    int occ = kernel->occupancy();
    int used = static_cast<int>(resident.size());
    return occ > used ? occ - used : 0;
}

ResidentTimeline::const_iterator
ResidentTimeline::insert(const ResidentTb &tb)
{
    if (tbs_.size() == tbs_.capacity() && head_ > 0) {
        tbs_.erase(tbs_.begin(),
                   tbs_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
    }
    auto pos = std::upper_bound(
        tbs_.begin() + static_cast<std::ptrdiff_t>(head_), tbs_.end(), tb,
        [](const ResidentTb &a, const ResidentTb &b) {
            if (a.endAt != b.endAt)
                return a.endAt < b.endAt;
            return a.seq < b.seq;
        });
    return tbs_.insert(pos, tb);
}

void
Sm::insertResident(const ResidentTb &tb)
{
    auto ins = resident.insert(tb);
    // The drain/preempt paths walk `resident` front-to-back assuming
    // (endAt, seq) order; an out-of-order insert silently reorders
    // preemption victims.
    GPUMP_AUDIT((ins == resident.begin() ||
                 (ins - 1)->endAt < tb.endAt ||
                 ((ins - 1)->endAt == tb.endAt && (ins - 1)->seq < tb.seq)) &&
                    (ins + 1 == resident.end() ||
                     tb.endAt < (ins + 1)->endAt ||
                     (tb.endAt == (ins + 1)->endAt && tb.seq < (ins + 1)->seq)),
                "SM %d resident timeline out of (endAt,seq) order "
                "(endAt=%lld seq=%llu)",
                id_, static_cast<long long>(tb.endAt),
                static_cast<unsigned long long>(tb.seq));
}

void
Sm::clearKernel()
{
    GPUMP_ASSERT(resident.empty(),
                 "SM %d cleared with %zu resident TBs", id_,
                 resident.size());
    GPUMP_ASSERT(!completionEvent.pending(),
                 "SM %d cleared with an armed completion event", id_);
    kernel = nullptr;
    nextKernel = nullptr;
    reserved = false;
    state = State::Idle;
    pendingEvent = sim::EventQueue::Handle();
    completionEvent = sim::EventQueue::Handle();
    ++setupEpoch;
}

const char *
smStateName(Sm::State s)
{
    switch (s) {
      case Sm::State::Idle: return "Idle";
      case Sm::State::Setup: return "Setup";
      case Sm::State::Running: return "Running";
      case Sm::State::Draining: return "Draining";
      case Sm::State::Saving: return "Saving";
    }
    return "?";
}

} // namespace gpu
} // namespace gpump
