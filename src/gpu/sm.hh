/**
 * @file
 * Sm: one streaming multiprocessor of the execution engine.
 *
 * The SM holds the resident thread blocks of exactly one kernel
 * (static hardware partitioning, Section 2.3), the per-SM context
 * extension of Section 3.1 (context id / base page table registers,
 * modelled as the loaded context plus a reload charge on
 * re-targeting), and the preemption state machine driven by the SM
 * driver:
 *
 *     Idle -> Setup -> Running -> (Draining | Saving) -> ...
 *
 * Draining and Saving are the in-flight phases of the two preemption
 * mechanisms of Section 3.2.  The architectural SMST entry (Idle /
 * Running / Reserved, and the "next" kernel) is this detailed state
 * plus the reserved flag and nextKernel.
 */

#ifndef GPUMP_GPU_SM_HH
#define GPUMP_GPU_SM_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/audit.hh"
#include "gpu/kernel_exec.hh"
#include "sim/event.hh"
#include "sim/types.hh"

namespace gpump {
namespace gpu {

/**
 * One thread block resident on an SM.
 *
 * Resident TBs do not own individual completion events: the SM keeps
 * them ordered by (endAt, seq) and arms its one timer for the earliest
 * (the per-SM completion timeline), so the event queue holds O(SMs)
 * armed completions instead of O(resident TBs).
 */
struct ResidentTb
{
    /** Thread block index within its kernel's grid. */
    int tbIndex;
    /** When execution (including any restore prefix) began. */
    sim::SimTime startedAt;
    /** When the block completes if not preempted. */
    sim::SimTime endAt;
    /** FIFO sequence reserved at issue; the tie-break key that keeps
     *  same-instant completions firing in issue order across SMs,
     *  exactly as when every TB owned its own event. */
    std::uint64_t seq;
};

/**
 * An SM's resident thread blocks in (endAt, seq) order: the per-SM
 * completion timeline.
 *
 * Every completion takes the head, so the blocks sit contiguously
 * behind a head offset: popping the head advances the offset instead
 * of shifting every remaining block, and the consumed prefix is
 * reclaimed only when an insert finds the storage full.  With room
 * for about twice the occupancy reserved, that happens at most once
 * per occupancy-many pops, so pops stay amortized O(1) and the
 * steady state never allocates.
 */
class ResidentTimeline
{
  public:
    using const_iterator = std::vector<ResidentTb>::const_iterator;

    const_iterator begin() const
    {
        return tbs_.begin() + static_cast<std::ptrdiff_t>(head_);
    }
    const_iterator end() const { return tbs_.end(); }
    std::size_t size() const { return tbs_.size() - head_; }
    bool empty() const { return head_ == tbs_.size(); }
    /** The next block to complete.  @pre !empty() */
    const ResidentTb &front() const { return tbs_[head_]; }
    /** The last block to complete.  @pre !empty() */
    const ResidentTb &back() const { return tbs_.back(); }

    /** Insert @p tb at its (endAt, seq) position.  Occupancy is small
     *  (<= a few tens), so ordered insert beats a heap.
     *  @return where @p tb landed. */
    const_iterator insert(const ResidentTb &tb)
    {
        if (tbs_.size() == tbs_.capacity() && head_ > 0) {
            tbs_.erase(tbs_.begin(),
                       tbs_.begin() + static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
        auto pos = std::upper_bound(
            tbs_.begin() + static_cast<std::ptrdiff_t>(head_), tbs_.end(),
            tb, [](const ResidentTb &a, const ResidentTb &b) {
                if (a.endAt != b.endAt)
                    return a.endAt < b.endAt;
                return a.seq < b.seq;
            });
        return tbs_.insert(pos, tb);
    }
    /** Remove the head.  @pre !empty() */
    void popFront()
    {
        if (++head_ == tbs_.size())
            clear();
    }
    void clear()
    {
        tbs_.clear();
        head_ = 0;
    }
    /** Make room for @p n blocks, consumed prefix included. */
    void reserve(std::size_t n) { tbs_.reserve(n); }

  private:
    std::vector<ResidentTb> tbs_;
    /** Blocks before this index have completed (consumed prefix). */
    std::size_t head_ = 0;
};

/** One streaming multiprocessor. */
class Sm
{
  public:
    /** Detailed execution state (see file comment). */
    enum class State
    {
        Idle,     ///< no kernel assigned
        Setup,    ///< SM driver configuring the SM for a kernel
        Running,  ///< executing thread blocks
        Draining, ///< reserved, running TBs to completion (mechanism 2)
        Saving,   ///< reserved, context being saved (mechanism 1)
    };

    explicit Sm(sim::SmId id) : id_(id) {}

    sim::SmId id() const { return id_; }

    /** @name State (written by the SM driver / framework)
     * @{ */
    State state = State::Idle;
    /** Kernel currently owning the SM (nullptr when Idle). */
    KernelExec *kernel = nullptr;
    /** Kernel the SM is reserved for (SMST "next" field). */
    KernelExec *nextKernel = nullptr;
    /** SMST reserved bit. */
    bool reserved = false;
    /** Thread blocks resident right now, ordered by (endAt, seq);
     *  the front one is the next to complete. */
    ResidentTimeline resident;
    /** The SM's next driver event, added by the framework for the
     *  SM's lifetime.  In Setup it is armed for the end of setup
     *  (disarmed when the assignment is unwound); otherwise it is armed
     *  for resident.front()'s completion while any block is resident,
     *  and disarmed on context-switch preemption. */
    sim::EventQueue::Timer timer;
    /** Sequence of the completion the timer is armed for (meaningful
     *  only while it is armed and the SM is not in Setup). */
    std::uint64_t armedSeq = 0;
    /** Bumped by clearKernel(): a callback staged before the SM's
     *  setup could begin (a residency swap-in) captures the epoch and
     *  drops itself when the assignment was unwound meanwhile.  The
     *  setup itself needs no epoch: unwinding disarms the timer. */
    std::uint64_t setupEpoch = 0;

    /** Insert an issued TB into the timeline, keeping (endAt, seq)
     *  order. */
    void insertResident(const ResidentTb &tb)
    {
        auto ins = resident.insert(tb);
        // The drain/preempt paths walk `resident` front-to-back
        // assuming (endAt, seq) order; an out-of-order insert silently
        // reorders preemption victims.
        GPUMP_AUDIT((ins == resident.begin() ||
                     (ins - 1)->endAt < tb.endAt ||
                     ((ins - 1)->endAt == tb.endAt &&
                      (ins - 1)->seq < tb.seq)) &&
                        (ins + 1 == resident.end() ||
                         tb.endAt < (ins + 1)->endAt ||
                         (tb.endAt == (ins + 1)->endAt &&
                          tb.seq < (ins + 1)->seq)),
                    "SM %d resident timeline out of (endAt,seq) order "
                    "(endAt=%lld seq=%llu)",
                    id_, static_cast<long long>(tb.endAt),
                    static_cast<unsigned long long>(tb.seq));
    }
    /** Context whose state (context id register, base page table
     *  register) is loaded; persists across kernels of the same
     *  context so back-to-back launches avoid the reload cost. */
    sim::ContextId loadedContext = sim::invalidContext;
    /** @} */

    /** True when a kernel is set up on this SM (any non-idle state). */
    bool busy() const { return state != State::Idle; }

    /** True when a policy may reserve this SM: a kernel is being set
     *  up or runs here and no reservation claims the SM yet. */
    bool preemptible() const
    {
        return !reserved &&
            (state == State::Running || state == State::Setup);
    }

    /** Number of additional TBs that fit, given the current kernel's
     *  occupancy; 0 when idle or reserved. */
    int freeSlots() const
    {
        if (!kernel || reserved || state == State::Saving)
            return 0;
        int occ = kernel->occupancy();
        int used = static_cast<int>(resident.size());
        return occ > used ? occ - used : 0;
    }

    /** Drop all per-kernel state, returning to Idle.  The caller is
     *  responsible for having unwound resident TBs first. */
    void clearKernel();

  private:
    sim::SmId id_;
};

/** Printable SM state names (for logs and tests). */
const char *smStateName(Sm::State s);

} // namespace gpu
} // namespace gpump

#endif // GPUMP_GPU_SM_HH
