/**
 * @file
 * Time multiplexing on top of the scheduling framework.
 *
 * Section 3.3 notes that "scheduling policies performing
 * prioritization, time multiplexing, spatial sharing or some
 * combination of these can be implemented on top of" the framework.
 * This policy implements the classic OS alternative to DSS: active
 * kernels take turns owning the whole execution engine for a time
 * quantum; on expiry every SM of the outgoing kernel is reserved for
 * the incoming one and vacated through whichever preemption mechanism
 * is installed.
 *
 * Work conservation: idle SMs the current kernel cannot use are
 * back-filled by the next kernels in ring order (the same rationale
 * as same-context back-to-back execution on the baseline).
 */

#ifndef GPUMP_CORE_TIMEMUX_HH
#define GPUMP_CORE_TIMEMUX_HH

#include <cstdint>

#include "core/policy.hh"
#include "sim/event.hh"

namespace gpump {
namespace core {

/** Round-robin whole-engine time slicing. */
class TimeMuxPolicy : public SchedulingPolicy
{
  public:
    /** @param quantum engine time slice per kernel. */
    explicit TimeMuxPolicy(sim::SimTime quantum);

    const char *name() const override { return "tmux"; }

    /** Also adds the quantum timer to the framework's event queue. */
    void bind(SchedulingFramework &fw) override;

    void onCommandWaiting(sim::ContextId ctx) override;
    void onSmIdle(gpu::Sm *sm) override;
    void onKernelFinished(gpu::KernelExec *k) override;
    void onPreemptionComplete(gpu::Sm *sm, gpu::KernelExec *next) override;

    sim::SimTime quantum() const { return quantum_; }

    /** Slot rotations performed (for tests/benches). */
    std::uint64_t rotations() const { return rotations_; }

  private:
    /** The kernel owning the current slice (ring position). */
    gpu::KernelExec *current() const;
    /** Hand idle SMs out: current first, then ring order. */
    void schedule();
    /** Advance the ring and preempt the outgoing kernel's SMs. */
    void rotate();
    /** Arm the quantum timer, unless armed, while at least two
     *  kernels are active. */
    void armTimer();

    sim::SimTime quantum_;
    /** Admission-order index of the slice owner. */
    std::size_t ringPos_ = 0;
    /** Fires rotate() at the end of a quantum. */
    sim::EventQueue::Timer timer_;
    std::uint64_t rotations_ = 0;
};

/** Descriptor of the built-in "tmux" policy. */
PolicyRegistry::Descriptor timeMuxDescriptor();

} // namespace core
} // namespace gpump

#endif // GPUMP_CORE_TIMEMUX_HH
