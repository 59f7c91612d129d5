#include "gpu/sm.hh"

#include "sim/logging.hh"

namespace gpump {
namespace gpu {

void
Sm::clearKernel()
{
    GPUMP_ASSERT(resident.empty(),
                 "SM %d cleared with %zu resident TBs", id_,
                 resident.size());
    GPUMP_ASSERT(!timer.armed(), "SM %d cleared with an armed timer", id_);
    kernel = nullptr;
    nextKernel = nullptr;
    reserved = false;
    state = State::Idle;
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
