/**
 * @file
 * Guaranteed forward progress vs. persistent kernels (the paper's
 * second motivation, Section 2.4).
 *
 * A "persistent threads" application occupies every SM with thread
 * blocks that spin forever waiting for work from the CPU.  Under the
 * draining mechanism such an SM can never be vacated: a small victim
 * kernel from another process starves.  The context-switch mechanism
 * preempts the spinning blocks like an OS would and the victim makes
 * progress.
 */

#include <cstdio>
#include <string>

#include "harness/args.hh"
#include "workload/device.hh"

using namespace gpump;

namespace {

/** Runs the scenario; returns the victim's completion time or -1 if
 *  it starved within the horizon. */
sim::SimTime
runScenario(const std::string &mechanism, sim::SimTime horizon,
            const sim::Config &overrides)
{
    // Two processes: DSS's equal share gives each kernel 13 / 2 = 6
    // SMs, and the first one admitted the remaining SM as a bonus.
    workload::Device dev("dss", mechanism, overrides, 1,
                         gpu::TransferEngine::Policy::Fcfs, 2);

    // The persistent kernel: fills all 13 SMs (occupancy 16) with
    // blocks that effectively never finish (an hour of "spinning").
    static const auto persistent =
        trace::makeProfile("spinner", 13 * 16, 3.6e9);
    // The victim: a short kernel from another user.
    static const auto victim = trace::makeProfile("victim", 26, 10.0);

    auto *q0 = dev.addContext(0, 0, 0);
    auto *q1 = dev.addContext(1, 0, 0);
    dev.dispatcher.enqueue(q0, dev.pool.makeKernel(0, 0, &persistent));

    sim::SimTime victim_done = -1;
    dev.sim.events().schedule(sim::microseconds(100.0), [&] {
        auto cmd = dev.pool.makeKernel(1, 0, &victim);
        cmd->onComplete = [&] { victim_done = dev.sim.now(); };
        dev.dispatcher.enqueue(q1, cmd);
    });

    dev.sim.run(horizon);
    return victim_done;
}

int
run(int argc, char **argv)
{
    // --list-schemes and config key=value overrides work in every
    // example binary; Args handles the flag and exits, and the
    // collected overrides feed every simulation below.
    harness::Args args(argc, argv);

    const sim::SimTime horizon = sim::milliseconds(100.0);
    std::printf("Persistent kernel vs. a 260 us victim kernel "
                "(DSS equal sharing)\n");
    std::printf("================================================="
                "=============\n\n");

    sim::SimTime with_drain = runScenario("draining", horizon, args.config());
    sim::SimTime with_cs = runScenario("context_switch", horizon, args.config());

    if (with_drain < 0) {
        std::printf("draining:        victim STARVED for the whole "
                    "%.0f ms horizon\n",
                    sim::toMilliseconds(horizon));
        std::printf("                 (the spinning blocks never reach "
                    "a thread block boundary)\n");
    } else {
        std::printf("draining:        victim finished at %.1f us\n",
                    sim::toMicroseconds(with_drain));
    }

    if (with_cs < 0) {
        std::printf("context switch:  victim starved (unexpected!)\n");
        return 1;
    }
    std::printf("context switch:  victim finished at %.1f us "
                "(%.1f us after submission)\n",
                sim::toMicroseconds(with_cs),
                sim::toMicroseconds(with_cs) - 100.0);

    std::printf("\nOnly the context-switch mechanism guarantees "
                "forward progress against\npersistent or malicious "
                "kernels (Section 3.2).\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return harness::runMain(argc, argv, run);
}
