#include "core/draining.hh"

#include "core/framework.hh"
#include "sim/logging.hh"

namespace gpump {
namespace core {

void
DrainingMechanism::beginPreemption(gpu::Sm *sm)
{
    GPUMP_ASSERT(fw_ != nullptr, "mechanism not bound");
    GPUMP_ASSERT(!sm->resident.empty(),
                 "draining an SM with nothing resident");
    // Nothing to do actively: the reserved flag already stops the SM
    // driver from issuing new thread blocks; the framework completes
    // the preemption when the last resident block finishes.
    sm->state = gpu::Sm::State::Draining;
}

// --------------------------------------------------------- registry

MechanismRegistry::Descriptor
drainingDescriptor()
{
    MechanismRegistry::Descriptor d;
    d.name = "draining";
    d.doc = "Drain-to-thread-block-boundary preemption (Section 3.2): "
            "stop issuing and let resident blocks finish; no context "
            "is saved, latency is the blocks' remaining run time";
    d.factory = [](const sim::Config &) {
        return std::make_unique<DrainingMechanism>();
    };
    return d;
}

} // namespace core
} // namespace gpump
