/**
 * @file
 * BORE-style burstiness scoring of processes (after the BORE "Burst-
 * Oriented Response Enhancer" CFS variant; see ROADMAP).
 *
 * BORE's idea, transplanted from CPU threads to GPU contexts: score
 * each process by the *burst lengths* it has been observed to run —
 * here the service time of its kernels, from first TB issue to grid
 * completion — and let the scheduler demote long-burst (batch)
 * processes relative to short-burst (interactive) ones.
 *
 * Mechanics mirror bore.c's shape on this codebase's observation
 * stream:
 *  - smoothing: the per-context average burst is updated with a
 *    binary-shift EWMA, avg += (observed - avg) / 2^smoothness;
 *  - log2 bucketing: the raw score is floor(log2(1 + avg_us)), so
 *    scores grow with the order of magnitude of the burst, not
 *    linearly (a 10x longer kernel is ~3 buckets worse);
 *  - decay on wait: while a context sits idle (no kernel completing),
 *    its score decays one bucket per decay_us of idleness — a process
 *    that stopped bursting earns its priority back.
 *
 * The score is capped so a runaway burst cannot push a process
 * arbitrarily far down; the bore_burst policy subtracts it from the
 * launch priority via the NpqPolicy::effectivePriority hook.
 *
 * Deterministic and allocation-free in steady state: per-context
 * state lives in a flat vector indexed by the dense context id.
 */

#ifndef GPUMP_PREDICT_BURST_HH
#define GPUMP_PREDICT_BURST_HH

#include <cstdint>
#include <vector>

#include "core/observer.hh"
#include "sim/types.hh"

namespace gpump {
namespace predict {

/** Per-process burstiness scoring from kernel service times. */
class BurstEstimator : public core::EngineObserver
{
  public:
    /**
     * @param smoothness EWMA shift in [0, 62]: each observation moves
     *        the average by 1/2^smoothness of the error.
     * @param max_score  cap on the burst score (>= 0).
     * @param decay_us   idle time per bucket of score decay (> 0).
     */
    BurstEstimator(int smoothness, int max_score, double decay_us);

    /** Fold a completed kernel's service time (k.firstIssuedAt to
     *  @p now) into its context's average burst. */
    void kernelFinished(const gpu::KernelExec &k, sim::SimTime now) override;

    /**
     * The context's burst score at @p now: the log2 bucket of its
     * average burst, minus one per decay_us elapsed since its last
     * observed completion, clamped to [0, max_score].  Unobserved
     * contexts score 0 (no evidence of bursting).
     */
    int burstScore(sim::ContextId ctx, sim::SimTime now) const;

    /** The smoothed average burst (us); 0 when unobserved (tests). */
    double avgBurstUs(sim::ContextId ctx) const;

    /** Kernel completions ingested (tests). */
    std::uint64_t observations() const { return observed_; }

  private:
    struct State
    {
        double avgUs = 0.0;
        sim::SimTime lastFinish = 0;
        bool any = false;
    };

    int smoothness_;
    int maxScore_;
    sim::SimTime decay_;
    std::vector<State> state_; // indexed by dense context id
    std::uint64_t observed_ = 0;
};

} // namespace predict
} // namespace gpump

#endif // GPUMP_PREDICT_BURST_HH
