/**
 * @file
 * Tests for GpuConfig::validationError / validate: the driver rejects
 * inconsistent machine descriptions (sizes that don't divide, zero
 * counts, LATTE sampling parameters that exceed the cache) instead of
 * simulating garbage.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/config.hh"

using namespace latte;

namespace
{

TEST(Config, DefaultConfigIsValid)
{
    const GpuConfig cfg;
    EXPECT_FALSE(cfg.validationError().has_value());
    cfg.validate(); // must not die
}

TEST(Config, RejectsL1SizeNotMultipleOfLineTimesAssoc)
{
    GpuConfig cfg;
    cfg.l1.sizeBytes = 16 * 1024 + 100;
    ASSERT_TRUE(cfg.validationError().has_value());
}

TEST(Config, RejectsZeroL1Size)
{
    GpuConfig cfg;
    cfg.l1.sizeBytes = 0;
    ASSERT_TRUE(cfg.validationError().has_value());
}

TEST(Config, RejectsSubBlockNotDividingLine)
{
    GpuConfig cfg;
    cfg.l1.subBlockBytes = 24;
    ASSERT_TRUE(cfg.validationError().has_value());

    cfg.l1.subBlockBytes = 0;
    ASSERT_TRUE(cfg.validationError().has_value());
}

TEST(Config, RejectsZeroCores)
{
    GpuConfig cfg;
    cfg.numSms = 0;
    EXPECT_TRUE(cfg.validationError().has_value());

    cfg = GpuConfig{};
    cfg.maxWarpsPerSm = 0;
    EXPECT_TRUE(cfg.validationError().has_value());
}

TEST(Config, RejectsSchedulerAndBlockLimits)
{
    GpuConfig cfg;
    for (std::uint32_t n = 1; n <= GpuConfig::kMaxSchedulersPerSm; ++n) {
        cfg.schedulersPerSm = n;
        EXPECT_FALSE(cfg.validationError().has_value()) << n;
    }
    // Zero divides by zero in the SM; beyond the maximum the tolerance
    // meter would merge schedulers' issue runs.
    cfg.schedulersPerSm = 0;
    EXPECT_TRUE(cfg.validationError().has_value());
    cfg.schedulersPerSm = GpuConfig::kMaxSchedulersPerSm + 1;
    EXPECT_TRUE(cfg.validationError().has_value());

    cfg = GpuConfig{};
    cfg.maxBlocksPerSm = 0;
    EXPECT_TRUE(cfg.validationError().has_value());
}

TEST(Config, RejectsZeroAssocOrMshrs)
{
    GpuConfig cfg;
    cfg.l1.assoc = 0;
    EXPECT_TRUE(cfg.validationError().has_value());

    cfg = GpuConfig{};
    cfg.l1.mshrEntries = 0;
    EXPECT_TRUE(cfg.validationError().has_value());

    cfg = GpuConfig{};
    cfg.l1.tagFactor = 0;
    EXPECT_TRUE(cfg.validationError().has_value());
}

TEST(Config, RejectsLatteSamplingWiderThanCache)
{
    GpuConfig cfg;
    // 3 modes x dedicated sets must leave room in the L1's set count.
    cfg.latte.dedicatedSetsPerMode = cfg.l1NumSets();
    EXPECT_TRUE(cfg.validationError().has_value());

    cfg = GpuConfig{};
    cfg.latte.epAccesses = 0;
    EXPECT_TRUE(cfg.validationError().has_value());
}

TEST(Config, RejectsZeroSampleSetsOrVftEntries)
{
    // Zero sample sets divides by zero when the mode selector binds;
    // zero VFT entries aborts in every SM's SC engine, Baseline too.
    GpuConfig cfg;
    cfg.latte.dedicatedSetsPerMode = 0;
    ASSERT_TRUE(cfg.validationError().has_value());
    EXPECT_NE(cfg.validationError()->find("dedicatedSetsPerMode"),
              std::string::npos);

    cfg = GpuConfig{};
    cfg.latte.vftEntries = 0;
    ASSERT_TRUE(cfg.validationError().has_value());
    EXPECT_NE(cfg.validationError()->find("vftEntries"), std::string::npos);

    cfg = GpuConfig{};
    cfg.latte.dedicatedSetsPerMode = 1;
    cfg.latte.vftEntries = 1;
    EXPECT_FALSE(cfg.validationError().has_value());
}

TEST(Config, RejectsLinesOtherThan128Bytes)
{
    // Both levels run on compression domains over the compressors' 128 B
    // lines; a 64 B L1 line passed validation, then aborted the process.
    GpuConfig cfg;
    cfg.l1.lineBytes = 64;
    ASSERT_TRUE(cfg.validationError().has_value());
    EXPECT_NE(cfg.validationError()->find("l1LineBytes"), std::string::npos);

    for (const std::uint32_t bytes : {0u, 64u, 256u}) {
        cfg = GpuConfig{};
        cfg.l2.lineBytes = bytes;
        ASSERT_TRUE(cfg.validationError().has_value()) << bytes;
        EXPECT_NE(cfg.validationError()->find("l2LineBytes"),
                  std::string::npos)
            << bytes;
    }
}

TEST(Config, RejectsBandwidthsThatAreNotFinitePositive)
{
    // Zero DRAM bandwidth wrote an infinite queue delay into the result
    // JSON; a negative NoC bandwidth gave negative service times.
    using Limits = std::numeric_limits<double>;
    for (const double bad :
         {0.0, -1.0, Limits::infinity(), Limits::quiet_NaN()}) {
        GpuConfig cfg;
        cfg.nocBytesPerCycle = bad;
        ASSERT_TRUE(cfg.validationError().has_value()) << bad;
        EXPECT_NE(cfg.validationError()->find("nocBytesPerCycle"),
                  std::string::npos)
            << bad;

        cfg = GpuConfig{};
        cfg.dramBytesPerCycle = bad;
        ASSERT_TRUE(cfg.validationError().has_value()) << bad;
        EXPECT_NE(cfg.validationError()->find("dramBytesPerCycle"),
                  std::string::npos)
            << bad;
    }

    GpuConfig cfg;
    cfg.nocBytesPerCycle = 0.5;
    cfg.dramBytesPerCycle = 0.5;
    EXPECT_FALSE(cfg.validationError().has_value());
}

TEST(Config, RejectsDramLatencyBelowTheL2s)
{
    // DRAM's extra latency beyond the L2 is unsigned: below the L2's it
    // wrapped, and a DRAM access returned before it was issued.
    GpuConfig cfg;
    cfg.dramMinLatency = cfg.l2.minLatency - 1;
    ASSERT_TRUE(cfg.validationError().has_value());
    EXPECT_NE(cfg.validationError()->find("dramMinLatency"),
              std::string::npos);

    cfg.dramMinLatency = cfg.l2.minLatency;
    EXPECT_FALSE(cfg.validationError().has_value());
}

TEST(Config, RejectsLearningLongerThanPeriod)
{
    GpuConfig cfg;
    cfg.latte.learningEps = cfg.latte.periodEps + 1;
    EXPECT_TRUE(cfg.validationError().has_value());
}

TEST(ConfigDeathTest, ValidateDiesOnBrokenConfig)
{
    GpuConfig cfg;
    cfg.l1.subBlockBytes = 24;
    EXPECT_DEATH(cfg.validate(), "invalid GpuConfig");
}

} // namespace
