/**
 * Tests of device-memory residency (memory/residency.hh): per-context
 * admission, LRU eviction with pinning, swap-in completion plumbing,
 * and the end-to-end oversubscribed run where swap traffic is charged
 * on the PCIe transfer path.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "memory/gpu_memory.hh"
#include "memory/residency.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "trace/app_model.hh"
#include "workload/system.hh"

using namespace gpump;
using namespace gpump::memory;

namespace {

/** Footprint unit of the rig tests (any size works; 64 KiB reads
 *  like a GPU page). */
constexpr std::int64_t kPage = 64 * 1024;

/** One recorded swap submission. */
struct SwapRec
{
    sim::ContextId ctx;
    std::int64_t bytes;
    bool toDevice;
    std::function<void()> done;
};

/** GpuMemory + a manager whose swap transfers are recorded instead
 *  of simulated; tests complete them by hand. */
struct ResidencyRig
{
    sim::StatRegistry reg;
    GpuMemory gmem;
    std::vector<SwapRec> swaps;
    ResidencyManager rm;

    explicit ResidencyRig(std::int64_t capacity_pages)
        : gmem(reg, paramsFor(capacity_pages)),
          rm(reg, gmem,
             [this](sim::ContextId ctx, int, std::int64_t bytes,
                    bool to_device, std::function<void()> done) {
                 swaps.push_back(
                     {ctx, bytes, to_device, std::move(done)});
             })
    {
    }

    static GpuMemoryParams paramsFor(std::int64_t pages)
    {
        GpuMemoryParams p;
        p.capacity = pages * kPage;
        return p;
    }

    /** Run every pending swap-completion callback, in order. */
    void completeSwaps()
    {
        // Callbacks can submit follow-up swaps; drain by index.
        for (std::size_t i = 0; i < swaps.size(); ++i) {
            if (swaps[i].done) {
                auto done = std::move(swaps[i].done);
                swaps[i].done = nullptr;
                done();
            }
        }
    }
};

} // namespace

TEST(Residency, FootprintBeyondCapacityIsFatal)
{
    ResidencyRig rig(8);
    EXPECT_THROW(rig.rm.registerContext(0, 0, 9 * kPage),
                 sim::FatalError)
        << "a footprint no eviction can ever make room for must be "
           "rejected at admission";
}

TEST(Residency, OversubscribedContextIsAdmittedSwappedOut)
{
    // The seed refused workloads whose combined footprints exceed
    // capacity.  Now only the per-context bound is fatal: the second
    // context is admitted without device memory.
    ResidencyRig rig(8);
    rig.rm.registerContext(0, 0, 5 * kPage);
    rig.rm.registerContext(1, 0, 5 * kPage);

    EXPECT_TRUE(rig.rm.resident(0));
    EXPECT_FALSE(rig.rm.resident(1));
    EXPECT_EQ(rig.gmem.totalAllocated(), 5 * kPage);
    EXPECT_EQ(rig.gmem.allocated(1), 0);
    EXPECT_TRUE(rig.swaps.empty()) << "admission moves no data";

    bool ready = false;
    rig.rm.ensureResident(0, [&] { ready = true; });
    EXPECT_TRUE(ready) << "resident contexts are ready synchronously";
    EXPECT_TRUE(rig.swaps.empty());
}

TEST(Residency, SwapInEvictsLruAndRunsWaitersOnCompletion)
{
    ResidencyRig rig(8);
    rig.rm.registerContext(0, 0, 5 * kPage);
    rig.rm.registerContext(1, 0, 5 * kPage);

    int ready = 0;
    rig.rm.ensureResident(1, [&] { ++ready; });
    // Both directions submitted: write back the victim, fetch the
    // incoming context.
    ASSERT_EQ(rig.swaps.size(), 2u);
    EXPECT_EQ(rig.swaps[0].ctx, 0);
    EXPECT_FALSE(rig.swaps[0].toDevice);
    EXPECT_EQ(rig.swaps[0].bytes, 5 * kPage);
    EXPECT_EQ(rig.swaps[1].ctx, 1);
    EXPECT_TRUE(rig.swaps[1].toDevice);
    EXPECT_EQ(rig.swaps[1].bytes, 5 * kPage);

    // Eviction is immediate (memory reused for the incoming context);
    // readiness is not.
    EXPECT_FALSE(rig.rm.resident(0));
    EXPECT_EQ(rig.gmem.allocated(0), 0);
    EXPECT_EQ(rig.gmem.allocated(1), 5 * kPage);
    EXPECT_EQ(rig.gmem.totalAllocated(), 5 * kPage);
    EXPECT_EQ(ready, 0) << "not ready until the swap-in lands";

    // A second request while the swap-in is in flight just waits;
    // it must not submit another transfer.
    rig.rm.ensureResident(1, [&] { ++ready; });
    EXPECT_EQ(rig.swaps.size(), 2u);

    rig.completeSwaps();
    EXPECT_TRUE(rig.rm.resident(1));
    EXPECT_EQ(ready, 2) << "every waiter runs exactly once";
    EXPECT_EQ(rig.rm.swapIns(), 1u);
    EXPECT_EQ(rig.rm.swapOuts(), 1u);
    EXPECT_DOUBLE_EQ(rig.rm.swapBytes(),
                     static_cast<double>(10 * kPage));
}

TEST(Residency, PinnedResidentsParkTheRequestUntilRelease)
{
    ResidencyRig rig(8);
    bool pinned = true;
    rig.rm.setPinQuery(
        [&](sim::ContextId ctx) { return ctx == 0 && pinned; });
    rig.rm.registerContext(0, 0, 5 * kPage);
    rig.rm.registerContext(1, 0, 5 * kPage);

    bool ready = false;
    rig.rm.ensureResident(1, [&] { ready = true; });
    EXPECT_EQ(rig.rm.parkedRequests(), 1u)
        << "the only victim is pinned: the request must park, not "
           "evict";
    EXPECT_TRUE(rig.swaps.empty());
    EXPECT_TRUE(rig.rm.resident(0));

    // Releasing the pin retries the parked request.
    pinned = false;
    rig.rm.onPinsReleased();
    EXPECT_EQ(rig.rm.parkedRequests(), 0u);
    ASSERT_EQ(rig.swaps.size(), 2u);
    rig.completeSwaps();
    EXPECT_TRUE(ready);
    EXPECT_TRUE(rig.rm.resident(1));
    EXPECT_FALSE(rig.rm.resident(0));
}

TEST(Residency, RemapNotifierFiresWhenAVictimIsEvicted)
{
    ResidencyRig rig(8);
    std::vector<sim::ContextId> remapped;
    rig.rm.setRemapNotifier(
        [&](sim::ContextId ctx) { remapped.push_back(ctx); });
    rig.rm.registerContext(0, 0, 5 * kPage);
    rig.rm.registerContext(1, 0, 5 * kPage);

    rig.rm.ensureResident(1, [] {});
    ASSERT_EQ(remapped.size(), 1u)
        << "exactly the evicted context is remapped";
    EXPECT_EQ(remapped[0], 0);
}

namespace {

/** A synthetic app whose device footprint is @p h2d bytes of inputs
 *  plus @p d2h bytes of outputs, with one 52-TB kernel in between. */
trace::BenchmarkSpec
footprintSpec(const std::string &name, std::int64_t h2d, std::int64_t d2h)
{
    trace::BenchmarkSpec s;
    s.name = name;
    s.dataset = "synthetic";
    trace::KernelProfile k;
    k.benchmark = s.name;
    k.kernel = "crunch";
    k.launches = 1;
    k.numThreadBlocks = 52;
    k.timePerTbUs = 20.0;
    k.regsPerTb = 4096;
    k.threadsPerTb = 512;
    s.kernels.push_back(k);
    using Kind = trace::TraceOp::Kind;
    s.ops.push_back({Kind::MemcpyH2D, 0, h2d, -1});
    s.ops.push_back({Kind::KernelLaunch, 0, 0, 0});
    s.ops.push_back({Kind::DeviceSync, 0, 0, -1});
    s.ops.push_back({Kind::MemcpyD2H, 0, d2h, -1});
    s.validate();
    return s;
}

/** 96 MiB of inputs and 32 MiB of outputs. */
const trace::BenchmarkSpec &
bigFootprintSpec()
{
    static const trace::BenchmarkSpec spec =
        footprintSpec("swapper", 96ll << 20, 32ll << 20);
    return spec;
}

} // namespace

TEST(ResidencySystem, OversubscribedProcessesCompleteWithSwaps)
{
    // Two 128 MiB-footprint processes on a 192 MiB device: the seed
    // would have refused this workload outright.  Now exactly one
    // context fits at a time, so every hand-over of the engine swaps
    // the other context in over the PCIe path — and the run still
    // completes.
    sim::Config cfg;
    cfg.set("gmem.capacity", static_cast<std::int64_t>(192) << 20);
    cfg.set("process.scratch_bytes", static_cast<std::int64_t>(0));
    workload::SystemSpec spec;
    spec.customSpecs = {&bigFootprintSpec(), &bigFootprintSpec()};
    spec.minReplays = 2;
    workload::System system(spec, cfg);
    auto result = system.run(sim::seconds(30.0));

    ASSERT_EQ(result.runs.size(), 2u);
    for (const auto &runs : result.runs)
        EXPECT_GE(runs.size(), 2u)
            << "both processes must finish their replays";
    EXPECT_GE(system.residency().swapIns(), 1u);
    EXPECT_GE(system.residency().swapOuts(), 1u);
    EXPECT_EQ(system.residency().parkedRequests(), 0u)
        << "nothing may end the run still waiting for memory";
    // Swap traffic is charged on the transfer path as driver
    // commands, one per swap direction.
    EXPECT_GE(system.framework().contextTransfers(),
              system.residency().swapIns() +
                  system.residency().swapOuts());
}

TEST(ResidencySystem, ResidentWorkloadsNeverSwap)
{
    // The same workload with the default (ample) capacity must not
    // touch the swap path at all.
    sim::Config cfg;
    cfg.set("process.scratch_bytes", static_cast<std::int64_t>(0));
    workload::SystemSpec spec;
    spec.customSpecs = {&bigFootprintSpec(), &bigFootprintSpec()};
    spec.minReplays = 2;
    workload::System system(spec, cfg);
    auto result = system.run(sim::seconds(30.0));

    ASSERT_EQ(result.runs.size(), 2u);
    EXPECT_EQ(system.residency().swapIns(), 0u);
    EXPECT_EQ(system.residency().swapOuts(), 0u);
    EXPECT_EQ(system.framework().contextTransfers(), 0u)
        << "no driver-originated transfers at defaults";
}

TEST(ResidencySystem, FootprintsThatFitToTheByteAreBothResident)
{
    // 65 537 + 65 535 bytes fill a 131 072-byte device exactly, so
    // both contexts must be admitted resident and run without a
    // swap.  Rounding the footprints up to 64 KiB pages would need
    // three pages on a two-page device and refuse the second context.
    const trace::BenchmarkSpec a = footprintSpec("a", 32768, 32769);
    const trace::BenchmarkSpec b = footprintSpec("b", 32768, 32767);
    sim::Config cfg;
    cfg.set("gmem.capacity", static_cast<std::int64_t>(131072));
    cfg.set("process.scratch_bytes", static_cast<std::int64_t>(0));
    workload::SystemSpec spec;
    spec.customSpecs = {&a, &b};
    spec.minReplays = 2;
    workload::System system(spec, cfg);
    EXPECT_TRUE(system.residency().resident(0));
    EXPECT_TRUE(system.residency().resident(1));

    auto result = system.run(sim::seconds(30.0));
    ASSERT_EQ(result.runs.size(), 2u);
    for (const auto &runs : result.runs)
        EXPECT_GE(runs.size(), 2u)
            << "both processes must finish their replays";
    EXPECT_EQ(system.residency().swapIns(), 0u);
    EXPECT_EQ(system.residency().swapOuts(), 0u);
}

TEST(ResidencySystem, NegativeScratchBytesIsFatalAndNamesTheKey)
{
    // Small enough to only shrink the 128 MiB footprint, and large
    // enough to make it negative: both are config errors.
    for (std::int64_t scratch :
         {std::int64_t{-1048576}, std::int64_t{-1000000000}}) {
        sim::Config cfg;
        cfg.set("process.scratch_bytes", scratch);
        workload::SystemSpec spec;
        spec.customSpecs = {&bigFootprintSpec()};
        std::string msg;
        try {
            workload::System system(spec, cfg);
            ADD_FAILURE() << "scratch " << scratch << " was accepted";
        } catch (const sim::FatalError &e) {
            msg = e.what();
        }
        EXPECT_NE(msg.find("process.scratch_bytes"), std::string::npos)
            << msg;
    }
}
