/**
 * @file
 * The adaptive preemption mechanism: draining or context switch,
 * chosen per SM.
 *
 * The paper quantifies a tradeoff between the two base mechanisms
 * (Figures 6-7): draining is free in memory traffic but its latency
 * is the resident blocks' remaining execution time, while a context
 * switch costs a bounded, data-size-dependent save.  This mechanism
 * plays the tradeoff per preemption: it estimates the remaining drain
 * time from the SM's issue timeline (the resident blocks' scheduled
 * completion times) and the save cost from the kernel's context
 * footprint at the SM's bandwidth share, then delegates to whichever
 * base mechanism is cheaper.  The "adaptive.bias" tunable skews the
 * comparison (bias > 1 favours draining).
 *
 * The mechanism registers as "adaptive" and is built entirely against
 * the public mechanism API — it owns a ContextSwitchMechanism and a
 * DrainingMechanism and dispatches between them.
 */

#ifndef GPUMP_CORE_ADAPTIVE_HH
#define GPUMP_CORE_ADAPTIVE_HH

#include <cstdint>

#include "core/context_switch.hh"
#include "core/draining.hh"

namespace gpump {
namespace core {

/**
 * Modeled cost of saving @p sm's resident contexts, shared by every
 * drain-vs-switch mechanism (adaptive, pred_adaptive): pipeline drain
 * plus the context-transfer time.  Under the default (uncontended)
 * switch model the transfer is the context bytes at a 1/NSMs global
 * memory bandwidth share.  Under gmem.contended_switch the save is a
 * D2H command on the transfer engine, so the model also charges the
 * engine's current backlog — queued and in-flight transfers the save
 * would wait behind — before the context bytes go on the wire.
 */
sim::SimTime modeledContextSaveCost(SchedulingFramework &fw,
                                    const gpu::Sm *sm);

/** Per-SM drain-vs-switch selection. */
class AdaptiveMechanism : public PreemptionMechanism
{
  public:
    /** @param bias drain when estimated drain time <= bias x modeled
     *         save cost; must be >= 0. */
    explicit AdaptiveMechanism(double bias = 1.0);

    const char *name() const override { return "adaptive"; }

    void bind(SchedulingFramework &fw) override;
    void beginPreemption(gpu::Sm *sm) override;

    double bias() const { return bias_; }

    /** @name Decision counters (tests, analyses)
     * @{ */
    std::uint64_t drainsChosen() const { return drains_; }
    std::uint64_t switchesChosen() const { return switches_; }
    /** @} */

    /** Estimated time until @p sm drains: the latest scheduled
     *  completion among its resident blocks, relative to now. */
    sim::SimTime estimatedDrainTime(const gpu::Sm *sm) const;

    /** Modeled cost of saving @p sm's resident contexts; delegates to
     *  modeledContextSaveCost() (queue-aware under
     *  gmem.contended_switch). */
    sim::SimTime modeledSaveCost(const gpu::Sm *sm) const;

  private:
    double bias_;
    ContextSwitchMechanism contextSwitch_;
    DrainingMechanism draining_;
    std::uint64_t drains_ = 0;
    std::uint64_t switches_ = 0;
};

} // namespace core
} // namespace gpump

#endif // GPUMP_CORE_ADAPTIVE_HH
