/**
 * @file
 * Memory-aware proactive context switching.
 *
 * A context switch is two data movements: the victim's save (D2H) and
 * the incoming kernel's restores (H2D).  The base mechanism serialises
 * them — restores start only when preempted blocks re-issue on the
 * vacated SM.  This mechanism overlaps them: at reservation time it
 * already knows which kernel the SM is promised to, so it stages
 * restore fetches for that kernel's preempted blocks while the victim
 * is still draining and saving.  When the fetches land the blocks
 * carry restore credit (gpu/kernel_exec.hh) and re-issue without the
 * inline restore cost.
 *
 * The overlap matters most under the contended-switch model
 * (gmem.contended_switch), where saves and restores queue on the
 * transfer path: prefetching moves the restore wait off the critical
 * path of the switch.  Under the default share model the fetch still
 * runs ahead at the bandwidth-share rate, shaving the restore term off
 * re-issued blocks' runtimes.
 *
 * Registers as "proactive_mem" with the "proactive_mem.lookahead"
 * tunable; built entirely on the public mechanism + framework API
 * (an out-of-tree mechanism could do the same).
 */

#ifndef GPUMP_CORE_PROACTIVE_MEM_HH
#define GPUMP_CORE_PROACTIVE_MEM_HH

#include <cstdint>

#include "core/context_switch.hh"

namespace gpump {
namespace core {

/** Context switch with restore prefetch for the reservation target. */
class ProactiveMemMechanism : public PreemptionMechanism
{
  public:
    /** @param lookahead max preempted TBs to stage per preemption;
     *         must be > 0. */
    explicit ProactiveMemMechanism(int lookahead = 16);

    const char *name() const override { return "proactive_mem"; }

    void bind(SchedulingFramework &fw) override;
    void beginPreemption(gpu::Sm *sm) override;

    int lookahead() const { return lookahead_; }

    /** @name Decision counters (tests, analyses)
     * @{ */
    /** Preemptions where at least one restore fetch was staged. */
    std::uint64_t prefetchesIssued() const { return prefetches_; }
    /** Preemptions with nothing to stage (no reservation target, an
     *  empty PTBQ, or every entry already covered). */
    std::uint64_t prefetchesSkipped() const { return skips_; }
    /** Preempted TBs staged across all preemptions. */
    std::uint64_t tbsStaged() const { return tbsStaged_; }
    /** @} */

  private:
    int lookahead_;
    ContextSwitchMechanism contextSwitch_;
    std::uint64_t prefetches_ = 0;
    std::uint64_t skips_ = 0;
    std::uint64_t tbsStaged_ = 0;
};

} // namespace core
} // namespace gpump

#endif // GPUMP_CORE_PROACTIVE_MEM_HH
