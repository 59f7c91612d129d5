/**
 * @file
 * The SM-draining preemption mechanism (Section 3.2, mechanism 2).
 *
 * Exploits thread-block independence: the SM driver stops issuing new
 * thread blocks to the reserved SM, and the preemption completes when
 * the last resident block finishes.  No context is saved or restored;
 * the cost is a preemption latency that depends on the running
 * blocks' remaining execution time — unbounded for persistent or
 * malicious kernels.
 */

#ifndef GPUMP_CORE_DRAINING_HH
#define GPUMP_CORE_DRAINING_HH

#include "core/preemption.hh"

namespace gpump {
namespace core {

/** Drain-to-thread-block-boundary preemption. */
class DrainingMechanism : public PreemptionMechanism
{
  public:
    const char *name() const override { return "draining"; }
    void beginPreemption(gpu::Sm *sm) override;
};

} // namespace core
} // namespace gpump

#endif // GPUMP_CORE_DRAINING_HH
