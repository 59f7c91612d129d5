/**
 * @file
 * Shared test fixtures: a device rig (the production
 * workload::Device, with no processes) that tests drive by enqueueing
 * commands directly, and a helper that captures a FatalError's
 * message.  test::makeProfile is trace::makeProfile.
 */

#ifndef GPUMP_TESTS_TEST_UTIL_HH
#define GPUMP_TESTS_TEST_UTIL_HH

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sim/logging.hh"
#include "trace/kernel_profile.hh"
#include "workload/device.hh"

namespace gpump {
namespace test {

using trace::makeProfile;

/** Run @p fn and return the text of the sim::FatalError it raises
 *  (a test failure, and "", when it raises none). */
template <typename Fn>
std::string
fatalMessageOf(Fn &&fn)
{
    try {
        fn();
    } catch (const sim::FatalError &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected sim::FatalError";
    return "";
}

/** A workload::Device built for zero processes, plus the calls tests
 *  drive it with.  Every context queueFor() names is registered with
 *  the residency manager at footprint 0, so it is always resident. */
struct DeviceRig : workload::Device
{
    using Device::Device;

    std::set<sim::ContextId> registered;

    /** Create a hardware queue for a context; a context's first queue
     *  registers it with the residency manager. */
    gpu::CommandQueue *queueFor(sim::ContextId ctx)
    {
        if (registered.insert(ctx).second)
            return addContext(ctx, /*priority=*/0, /*footprint=*/0);
        return dispatcher.createQueue(ctx, params.numHwQueues);
    }

    /** Enqueue a kernel command now; returns the command. */
    gpu::CommandPtr
    launch(gpu::CommandQueue *q, const trace::KernelProfile *profile,
           int priority = 0)
    {
        auto cmd = pool.makeKernel(q->ctx(), priority, profile);
        dispatcher.enqueue(q, cmd);
        return cmd;
    }

    /** Run the event loop to completion (or a time limit). */
    sim::SimTime run(sim::SimTime limit = sim::maxTime)
    {
        return sim.run(limit);
    }
};

} // namespace test
} // namespace gpump

#endif // GPUMP_TESTS_TEST_UTIL_HH
