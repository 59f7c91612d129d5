#include "gpu/gpu_context.hh"

#include <utility>

#include "sim/logging.hh"

namespace gpump {
namespace gpu {

void
GpuContext::commandCompleted()
{
    GPUMP_ASSERT(outstanding_ > 0,
                 "context %d completed more commands than it enqueued",
                 id_);
    --outstanding_;
    if (outstanding_ == 0 && !waiters_.empty()) {
        // Waiters may enqueue new work from inside the callback; move
        // the list out first so re-registration is safe.  The firing
        // list is a member so its capacity survives across syncs (one
        // device synchronisation per replay is hot-path work); a
        // nested completion cycle — possible only if a waiter's
        // callback synchronously drives another full enqueue/complete
        // round — falls back to a local list.
        if (firingWaiters_) {
            std::vector<std::function<void()>> ready;
            ready.swap(waiters_);
            for (auto &cb : ready)
                cb();
            return;
        }
        firingWaiters_ = true;
        firingScratch_.swap(waiters_);
        for (auto &cb : firingScratch_)
            cb();
        firingScratch_.clear();
        firingWaiters_ = false;
    }
}

void
GpuContext::waitIdle(std::function<void()> cb)
{
    if (idle()) {
        cb();
        return;
    }
    waiters_.push_back(std::move(cb));
}

} // namespace gpu
} // namespace gpump
