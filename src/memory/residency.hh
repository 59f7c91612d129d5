/**
 * @file
 * Device-memory residency: capacity enforcement plus context swapping.
 *
 * The modelled hardware does not demand page (Section 2.2), so the
 * seed's rule was blunt: the sum of every process's footprint had to
 * fit in device memory or assembly raised fatal().  This manager
 * relaxes that to per-context admission — a context's footprint must
 * fit in physical memory *alone* — and lets co-resident processes
 * oversubscribe the device: when a context's kernels need the GPU and
 * its state is not resident, the least-recently-used unpinned resident
 * context is swapped out (write-back over the transfer path) and the
 * incoming context pays a swap-in transfer before its kernels issue.
 *
 * A context's device state — inputs, outputs, scratch and any saved
 * thread-block contexts — swaps as one footprint-sized unit; the
 * timing model charges whole-footprint transfers and does not track
 * dirty subsets.
 *
 * GpuMemory's byte ledger, driven by this manager, is the device's
 * only capacity model: footprints are charged to the byte.
 *
 * Layering: this file lives in memory/ and must not depend on gpu/ or
 * core/, so the actual transfer submission and the two engine-side
 * hooks ("is this context pinned on an SM?", "this context was
 * evicted, so SMs holding it must reload it") are injected as
 * callbacks at assembly (workload::Device wires them to the
 * scheduling framework).
 */

#ifndef GPUMP_MEMORY_RESIDENCY_HH
#define GPUMP_MEMORY_RESIDENCY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

// audit.hh is dependency-free by design, so including it here does
// not violate memory/'s no-core-dependency rule (see its file
// comment).
#include "core/audit.hh"
#include "memory/gpu_memory.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace gpump {
namespace memory {

/** Tracks which contexts' state is in device memory and swaps on
 *  demand. */
class ResidencyManager
{
  public:
    /**
     * Submit one swap transfer on the device's transfer path.
     * @param to_device true for swap-in (H2D), false for write-back.
     * @param done      runs when the transfer completes.
     */
    using SwapSubmit = std::function<void(
        sim::ContextId ctx, int priority, std::int64_t bytes,
        bool to_device, std::function<void()> done)>;

    ResidencyManager(sim::StatRegistry &stats, GpuMemory &gmem,
                     SwapSubmit submit);

    /** True when @p ctx may not be swapped out (its kernels hold or
     *  are promised SMs).  Unset = nothing is ever pinned. */
    void setPinQuery(std::function<bool(sim::ContextId)> fn);

    /** Ran after a context is evicted, so SMs that still have it
     *  loaded pay the context load again on its next assignment. */
    void setRemapNotifier(std::function<void(sim::ContextId)> fn);

    /**
     * Admit a context with a fixed device footprint.  Raises fatal()
     * only when the footprint alone exceeds physical capacity; a
     * context that does not fit *now* is admitted swapped out.
     * Resident contexts hold their GpuMemory allocation; swapped-out
     * contexts hold none.
     */
    void registerContext(sim::ContextId ctx, int priority,
                         std::int64_t footprint);

    /** True when @p ctx's state is in device memory right now.
     *  @pre @p ctx is registered */
    bool resident(sim::ContextId ctx) const;

    /**
     * Run @p ready once @p ctx's state is resident: synchronously when
     * it already is, otherwise after the swap-in transfer (and any
     * evictions making room for it) completes.  Requests that cannot
     * make room yet — every resident context pinned — park until
     * onPinsReleased().  @pre @p ctx is registered
     */
    void ensureResident(sim::ContextId ctx, std::function<void()> ready);

    /** An SM released its kernel somewhere: retry parked requests. */
    void onPinsReleased();

    /** @name Swap accounting (tests, analyses)
     * @{ */
    std::uint64_t swapIns() const
    {
        return static_cast<std::uint64_t>(swapIns_.value());
    }
    std::uint64_t swapOuts() const
    {
        return static_cast<std::uint64_t>(swapOuts_.value());
    }
    double swapBytes() const { return swapBytes_.value(); }
    /** Requests currently parked for want of an evictable victim. */
    std::size_t parkedRequests() const { return parked_.size(); }
    /** @} */

#if GPUMP_AUDIT_ENABLED
    /** Test hook (audit builds only): mark @p ctx Resident without
     *  allocating device memory, deliberately breaking the
     *  covered-footprint ≤ capacity invariant so tests/test_audit.cpp
     *  can watch auditCapacity() trip on the next mutator. */
    void auditForceResidentForTest(sim::ContextId ctx);
#endif

  private:
    enum class State
    {
        Resident,   ///< allocation held, state on device
        SwappingIn, ///< allocation held, swap-in transfer in flight
        SwappedOut, ///< no allocation, state lives on the host
    };

    struct CtxInfo
    {
        State state = State::SwappedOut;
        int priority = 0;
        std::int64_t footprint = 0;
        std::uint64_t lastUse = 0; ///< LRU clock for victim selection
        bool parked = false;       ///< sitting in parked_
        std::vector<std::function<void()>> waiters;
    };

    CtxInfo &info(sim::ContextId ctx);

    /** Evict LRU unpinned residents until @p bytes fit; false when no
     *  victim remains (caller parks the request). */
    bool makeRoom(std::int64_t bytes, sim::ContextId incoming);
    void evict(sim::ContextId victim);
    /** Allocate and start the swap-in transfer; false when room
     *  could not be made. */
    bool tryStartSwapIn(sim::ContextId ctx);
    void finishSwapIn(sim::ContextId ctx);
    void retryParked();

#if GPUMP_AUDIT_ENABLED
    /** O(#contexts) walk: every byte of Resident/SwappingIn footprint
     *  must fit in device capacity, as must GpuMemory's own
     *  allocation total.  Called after every residency transition. */
    void auditCapacity() const;
#endif

    GpuMemory *gmem_;
    SwapSubmit submit_;
    std::function<bool(sim::ContextId)> pinned_;
    std::function<void(sim::ContextId)> remapNotify_;
    std::map<sim::ContextId, CtxInfo> ctxs_;
    std::uint64_t useClock_ = 0;
    std::vector<sim::ContextId> parked_; ///< FIFO of waiting contexts

    sim::Scalar swapIns_;
    sim::Scalar swapOuts_;
    sim::Scalar swapBytes_;
};

} // namespace memory
} // namespace gpump

#endif // GPUMP_MEMORY_RESIDENCY_HH
