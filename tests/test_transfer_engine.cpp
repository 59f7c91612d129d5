/** Unit tests for the data transfer engine. */

#include <gtest/gtest.h>

#include <vector>

#include "sim/logging.hh"
#include "tests/test_util.hh"

using namespace gpump;
using test::DeviceRig;

namespace {

gpu::CommandPtr
memcpyCmd(DeviceRig &rig, sim::ContextId ctx, int priority,
          std::int64_t bytes, std::vector<std::string> *order,
          const std::string &tag)
{
    auto cmd = rig.pool.makeMemcpy(
        ctx, priority, gpu::Command::Kind::MemcpyH2D, bytes);
    cmd->onComplete = [order, tag] { order->push_back(tag); };
    return cmd;
}

} // namespace

TEST(TransferEngine, SingleTransferTiming)
{
    DeviceRig rig;
    auto *q = rig.queueFor(0);
    std::vector<std::string> order;
    rig.dispatcher.enqueue(q, memcpyCmd(rig, 0, 0, 1 << 20, &order, "a"));
    sim::SimTime end = rig.run();
    ASSERT_EQ(order.size(), 1u);
    // 1 MiB = 256 bursts * 256 ns + 2 us setup = 67536 ns.
    EXPECT_EQ(end, 65536 + 2000);
}

TEST(TransferEngine, FcfsOrder)
{
    DeviceRig rig;
    auto *q0 = rig.queueFor(0);
    auto *q1 = rig.queueFor(1);
    auto *q2 = rig.queueFor(2);
    std::vector<std::string> order;
    // Low priority arrives first; FCFS ignores priorities.
    rig.dispatcher.enqueue(q0, memcpyCmd(rig, 0, 0, 4096, &order, "lo1"));
    rig.dispatcher.enqueue(q1, memcpyCmd(rig, 1, 5, 4096, &order, "hi"));
    rig.dispatcher.enqueue(q2, memcpyCmd(rig, 2, 0, 4096, &order, "lo2"));
    rig.run();
    EXPECT_EQ(order, (std::vector<std::string>{"lo1", "hi", "lo2"}));
}

TEST(TransferEngine, PriorityPolicyReordersQueue)
{
    DeviceRig rig("fcfs", "context_switch", sim::Config(), 1,
                  gpu::TransferEngine::Policy::Priority);
    auto *q0 = rig.queueFor(0);
    auto *q1 = rig.queueFor(1);
    auto *q2 = rig.queueFor(2);
    std::vector<std::string> order;
    // First transfer starts immediately (engine idle); while it is on
    // the wire the other two queue up and the high-priority one must
    // win the next slot.
    rig.dispatcher.enqueue(q0, memcpyCmd(rig, 0, 0, 1 << 20, &order, "first"));
    rig.dispatcher.enqueue(q1, memcpyCmd(rig, 1, 0, 4096, &order, "lo"));
    rig.dispatcher.enqueue(q2, memcpyCmd(rig, 2, 7, 4096, &order, "hi"));
    rig.run();
    EXPECT_EQ(order, (std::vector<std::string>{"first", "hi", "lo"}));
}

TEST(TransferEngine, PriorityTiesBrokenByArrival)
{
    DeviceRig rig("fcfs", "context_switch", sim::Config(), 1,
                  gpu::TransferEngine::Policy::Priority);
    auto *q0 = rig.queueFor(0);
    auto *q1 = rig.queueFor(1);
    auto *q2 = rig.queueFor(2);
    std::vector<std::string> order;
    rig.dispatcher.enqueue(q0, memcpyCmd(rig, 0, 0, 1 << 20, &order, "first"));
    rig.dispatcher.enqueue(q1, memcpyCmd(rig, 1, 3, 4096, &order, "a"));
    rig.dispatcher.enqueue(q2, memcpyCmd(rig, 2, 3, 4096, &order, "b"));
    rig.run();
    EXPECT_EQ(order, (std::vector<std::string>{"first", "a", "b"}));
}

TEST(TransferEngine, OverlapsWithKernelExecution)
{
    // Commands targeting different engines proceed concurrently
    // (Section 2.2): a transfer from ctx 1 must not wait for ctx 0's
    // kernel occupying the execution engine.
    DeviceRig rig;
    auto *q0 = rig.queueFor(0);
    auto *q1 = rig.queueFor(1);

    auto k = test::makeProfile("k", 13, 1000.0); // 1 ms kernel
    rig.launch(q0, &k);

    std::vector<std::string> order;
    sim::SimTime xfer_done = -1;
    auto cmd = rig.pool.makeMemcpy(1, 0,
                                        gpu::Command::Kind::MemcpyD2H,
                                        4096);
    cmd->onComplete = [&] { xfer_done = rig.sim.now(); };
    rig.dispatcher.enqueue(q1, cmd);

    rig.run();
    ASSERT_GE(xfer_done, 0);
    EXPECT_LT(xfer_done, sim::microseconds(100.0))
        << "transfer must complete while the kernel is still running";
}

TEST(TransferEngine, RejectsKernelCommands)
{
    DeviceRig rig;
    auto k = test::makeProfile("k", 1, 1.0);
    auto cmd = rig.pool.makeKernel(0, 0, &k);
    EXPECT_THROW(rig.xfer.submit(cmd), sim::PanicError);
}

TEST(TransferEngine, PolicyNameParsing)
{
    using TE = gpu::TransferEngine;
    EXPECT_EQ(TE::policyFromName("fcfs"), TE::Policy::Fcfs);
    EXPECT_EQ(TE::policyFromName("priority"), TE::Policy::Priority);
    EXPECT_THROW(TE::policyFromName("bogus"), sim::FatalError);
}
