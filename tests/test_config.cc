/**
 * @file
 * Tests for GpuConfig::validationError / validate: the driver rejects
 * inconsistent machine descriptions (sizes that don't divide, zero
 * counts, LATTE sampling parameters that exceed the cache) instead of
 * simulating garbage.
 */

#include <gtest/gtest.h>

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
