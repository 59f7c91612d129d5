/** Unit tests for GPU parameters and the occupancy model. */

#include <gtest/gtest.h>

#include "gpu/gpu_config.hh"
#include "sim/logging.hh"
#include "tests/test_util.hh"

using namespace gpump;
using namespace gpump::gpu;

TEST(GpuConfig, Table2Defaults)
{
    GpuParams p;
    EXPECT_EQ(p.numSms, 13);
    EXPECT_DOUBLE_EQ(p.clockGhz, 0.706);
    EXPECT_EQ(p.pipelinesPerSm, 32);
    EXPECT_EQ(p.regsPerSm, 65536);
    EXPECT_EQ(p.maxThreadsPerSm, 2048);
    EXPECT_EQ(p.maxTbSlotsPerSm, 16);
    ASSERT_EQ(p.shmemConfigs.size(), 3u);
    EXPECT_EQ(p.shmemConfigs[0], 16 * 1024);
    EXPECT_EQ(p.shmemConfigs[2], 48 * 1024);
}

TEST(GpuConfig, ConfigOverrides)
{
    sim::Config cfg;
    cfg.parse("gpu.num_sms=4");
    cfg.parse("gpu.tb_time_cv=0.25");
    GpuParams p = GpuParams::fromConfig(cfg);
    EXPECT_EQ(p.numSms, 4);
    EXPECT_DOUBLE_EQ(p.tbTimeCv, 0.25);
}

TEST(GpuConfig, InvalidConfigIsFatal)
{
    sim::Config cfg;
    cfg.parse("gpu.num_sms=0");
    EXPECT_THROW(GpuParams::fromConfig(cfg), sim::FatalError);
    sim::Config cfg2;
    cfg2.parse("gpu.tb_time_cv=-1");
    EXPECT_THROW(GpuParams::fromConfig(cfg2), sim::FatalError);

    // 2^32 + the Table 2 default: a narrowing cast would wrap each of
    // these back to the default and run the default GPU.
    const std::int64_t wrap = std::int64_t{1} << 32;
    GpuParams def;
    const std::pair<const char *, int> counts[] = {
        {"gpu.num_sms", def.numSms},
        {"gpu.pipelines_per_sm", def.pipelinesPerSm},
        {"gpu.regs_per_sm", def.regsPerSm},
        {"gpu.max_threads_per_sm", def.maxThreadsPerSm},
        {"gpu.max_tb_slots_per_sm", def.maxTbSlotsPerSm},
        {"gpu.num_hw_queues", def.numHwQueues},
    };
    for (const auto &[key, value] : counts) {
        sim::Config wide;
        wide.set(key, wrap + value);
        EXPECT_THROW(GpuParams::fromConfig(wide), sim::FatalError) << key;
    }
}

TEST(GpuConfig, DurationKeysRejectNegativeAndOverflowingValues)
{
    // Each used to reach the event queue as a negative delay (or, at
    // 1e300, as an out-of-range double-to-int64 cast) and panic there
    // without naming the key.
    for (const char *key : {"gpu.sm_setup_us", "gpu.context_load_us",
                             "gpu.pipeline_drain_us",
                             "gpu.command_submit_us"}) {
        for (const char *v : {"-1", "1e300"}) {
            sim::Config cfg;
            cfg.set(key, std::string(v));
            std::string msg = test::fatalMessageOf(
                [&] { GpuParams::fromConfig(cfg); });
            EXPECT_NE(msg.find(key), std::string::npos)
                << key << "=" << v << ": " << msg;
        }
    }

    // Defaults and in-range overrides convert exactly as before.
    GpuParams def;
    GpuParams same = GpuParams::fromConfig(sim::Config());
    EXPECT_EQ(same.smSetupLatency, def.smSetupLatency);
    EXPECT_EQ(same.contextLoadLatency, def.contextLoadLatency);
    EXPECT_EQ(same.pipelineDrainLatency, def.pipelineDrainLatency);
    EXPECT_EQ(same.commandSubmitLatency, def.commandSubmitLatency);
    EXPECT_EQ(def.smSetupLatency, sim::microseconds(1.0));
    EXPECT_EQ(def.commandSubmitLatency, sim::microseconds(5.0));
    sim::Config cfg;
    cfg.parse("gpu.sm_setup_us=2.5");
    cfg.parse("gpu.context_load_us=0");
    cfg.parse("gpu.pipeline_drain_us=0.0004");
    GpuParams p = GpuParams::fromConfig(cfg);
    EXPECT_EQ(p.smSetupLatency, 2500);
    EXPECT_EQ(p.contextLoadLatency, 0);
    EXPECT_EQ(p.pipelineDrainLatency, 0);
}

TEST(GpuConfig, SharedMemoryConfigSelection)
{
    GpuParams p;
    // Footnote 1: first configuration that satisfies the requirement.
    auto k = test::makeProfile("k", 1, 1.0, 100, 0);
    EXPECT_EQ(selectShmemConfig(k, p), 16 * 1024);
    k.sharedMemPerTb = 16 * 1024;
    EXPECT_EQ(selectShmemConfig(k, p), 16 * 1024);
    k.sharedMemPerTb = 16 * 1024 + 1;
    EXPECT_EQ(selectShmemConfig(k, p), 32 * 1024);
    k.sharedMemPerTb = 24576; // histo.main
    EXPECT_EQ(selectShmemConfig(k, p), 32 * 1024);
    k.sharedMemPerTb = 48 * 1024;
    EXPECT_EQ(selectShmemConfig(k, p), 48 * 1024);
    k.sharedMemPerTb = 48 * 1024 + 1;
    EXPECT_THROW(selectShmemConfig(k, p), sim::FatalError);
}

TEST(GpuConfig, OccupancyLimitedByEachResource)
{
    GpuParams p;
    // Register-limited: 65536 / 5000 = 13.1 -> 13.
    EXPECT_EQ(maxTbsPerSm(test::makeProfile("r", 1, 1, 5000, 0, 64), p),
              13);
    // Shared-memory-limited: 16384 / 5000 = 3.
    EXPECT_EQ(maxTbsPerSm(test::makeProfile("s", 1, 1, 100, 5000, 64), p),
              3);
    // Thread-limited: 2048 / 512 = 4.
    EXPECT_EQ(maxTbsPerSm(test::makeProfile("t", 1, 1, 100, 0, 512), p),
              4);
    // Slot-limited: tiny TBs still cap at 16.
    EXPECT_EQ(maxTbsPerSm(test::makeProfile("z", 1, 1, 16, 0, 32), p),
              16);
}

TEST(GpuConfig, OccupancyUsesSelectedShmemConfig)
{
    GpuParams p;
    // 20000 B/TB forces the 32 KB configuration: 32768/20000 = 1.
    EXPECT_EQ(maxTbsPerSm(test::makeProfile("k", 1, 1, 100, 20000, 64),
                          p),
              1);
    // 9000 B/TB fits the 16 KB config once: 16384/9000 = 1... and the
    // model must NOT opportunistically jump to 48 KB for occupancy 5.
    EXPECT_EQ(maxTbsPerSm(test::makeProfile("k2", 1, 1, 100, 9000, 64),
                          p),
              1);
}

TEST(GpuConfig, ImpossibleKernelIsFatal)
{
    GpuParams p;
    auto k = test::makeProfile("huge", 1, 1, 70000, 0, 64);
    EXPECT_THROW(maxTbsPerSm(k, p), sim::FatalError);
}

TEST(GpuConfig, SmContextBytes)
{
    GpuParams p;
    // 4096 regs * 4 B = 16 KiB per TB; occupancy 4 (64 threads,
    // 65536/4096=16, slots 16 -> reg limit 16? threads 2048/64=32;
    // regs 16; slots 16 -> 16) -> use explicit numbers instead:
    auto k = test::makeProfile("k", 8, 1.0, 8192, 1024, 256);
    // regs: 65536/8192 = 8; shmem: 16384/1024 = 16; threads: 8 -> 8.
    EXPECT_EQ(maxTbsPerSm(k, p), 8);
    EXPECT_EQ(smContextBytes(k, p), (4 * 8192 + 1024) * 8);
}
