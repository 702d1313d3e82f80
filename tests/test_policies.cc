/**
 * @file
 * Unit tests for the compression management policies: EP clock
 * arithmetic, the latency tolerance meter, static SC generation
 * handling, LATTE-CC's dedicated-set mapping, AMAT-driven decisions
 * and the rule that gates its flush of mismatched sampled lines.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <utility>

#include "common/rng.hh"
#include "core/driver.hh"
#include "common/ep_clock.hh"
#include "sim/lt_meter.hh"

using namespace latte;

// ------------------------------------------------------------ EpClock

TEST(EpClock, BoundariesFire)
{
    LatteParams params;
    params.epAccesses = 4;
    params.periodEps = 3;
    EpClock clock(params);

    int ep_boundaries = 0, period_boundaries = 0;
    for (int i = 0; i < 4 * 3 * 2; ++i) {
        const auto events = clock.onAccess();
        if (events.epBoundary)
            ++ep_boundaries;
        if (events.periodBoundary)
            ++period_boundaries;
    }
    EXPECT_EQ(ep_boundaries, 6);
    EXPECT_EQ(period_boundaries, 2);
    EXPECT_EQ(clock.epIndex(), 6u);
    EXPECT_EQ(clock.periodIndex(), 2u);
}

TEST(EpClock, PhaseQueries)
{
    LatteParams params;
    params.epAccesses = 2;
    params.periodEps = 4;
    params.learningEps = 1;
    EpClock clock(params);

    EXPECT_TRUE(clock.inLearningPhase());
    EXPECT_FALSE(clock.inHitTailPhase());
    clock.onAccess();
    clock.onAccess(); // EP 0 done -> EP 1
    EXPECT_FALSE(clock.inLearningPhase());
    EXPECT_TRUE(clock.inHitTailPhase());
    clock.onAccess();
    clock.onAccess(); // EP 2
    EXPECT_FALSE(clock.inHitTailPhase());
    clock.onAccess();
    clock.onAccess(); // EP 3 (final)
    EXPECT_TRUE(clock.inFinalEp());
}

// ------------------------------------------------- LatencyToleranceMeter

TEST(LtMeter, RoundRobinLikeToleranceIsReadyCount)
{
    LatencyToleranceMeter meter;
    // 10 cycles with 5 ready warps, alternating warps (run length 1).
    for (int i = 0; i < 10; ++i) {
        meter.accumulate(5);
        meter.noteIssue(0, static_cast<std::uint32_t>(i % 5));
    }
    EXPECT_DOUBLE_EQ(meter.avgReadyWarps(), 5.0);
    EXPECT_NEAR(meter.avgRunLength(), 2.0, 1.1); // 10 issues, >=5 runs
    // tolerance = (5-1) * runLen
    EXPECT_GE(meter.latencyTolerance(), 4.0);
}

TEST(LtMeter, GreedyRunsMultiplyTolerance)
{
    LatencyToleranceMeter meter;
    // One warp issues 8 consecutive times, then another.
    for (int i = 0; i < 8; ++i) {
        meter.accumulate(3);
        meter.noteIssue(0, 7);
    }
    for (int i = 0; i < 8; ++i) {
        meter.accumulate(3);
        meter.noteIssue(0, 9);
    }
    EXPECT_DOUBLE_EQ(meter.avgRunLength(), 8.0);
    EXPECT_DOUBLE_EQ(meter.latencyTolerance(), 2.0 * 8.0);
}

TEST(LtMeter, IdleCyclesDragToleranceDown)
{
    LatencyToleranceMeter meter;
    meter.accumulate(10, 10);
    meter.accumulate(0, 990);
    EXPECT_NEAR(meter.avgReadyWarps(), 0.1, 1e-9);
    EXPECT_DOUBLE_EQ(meter.latencyTolerance(), 0.0);
}

TEST(LtMeter, HarvestResetsWindow)
{
    LatencyToleranceMeter meter;
    meter.accumulate(6, 4);
    meter.noteIssue(0, 1);
    const double tolerance = meter.harvest();
    EXPECT_GT(tolerance, 0.0);
    EXPECT_EQ(meter.windowCycles(), 0u);
    EXPECT_DOUBLE_EQ(meter.avgReadyWarps(), 0.0);
}

// ---------------------------------------------------------- policies

namespace
{

/** Everything a policy needs, wired to a one-SM rig. */
class PolicyRig
{
  public:
    PolicyRig()
        : root("root"), noc(cfg, &root), dram(cfg, &root),
          l2(cfg, &noc, &dram, &mem, &root), engines(cfg),
          cache(cfg, 0, &engines, &l2, &mem, &root)
    {}

    void
    attach(Policy &policy)
    {
        policy.bind(&cache, &engines, &meter);
        cache.setModeProvider(&policy);
    }

    GpuConfig cfg;
    StatGroup root;
    MemoryImage mem;
    Interconnect noc;
    DramModel dram;
    L2Cache l2;
    CompressionEngines engines;
    CompressedCache cache;
    LatencyToleranceMeter meter;
};

} // namespace

TEST(StaticPolicy, NamesAndModes)
{
    GpuConfig cfg;
    StaticPolicy none(cfg, CompressorId::None);
    StaticPolicy bdi(cfg, CompressorId::Bdi);
    EXPECT_EQ(none.name(), "Baseline");
    EXPECT_EQ(bdi.name(), "Static-BDI");
    EXPECT_EQ(none.modeForInsertion(3), CompressorId::None);
    EXPECT_EQ(bdi.modeForInsertion(3), CompressorId::Bdi);
}

TEST(StaticPolicy, ScBuildsCodesAfterFirstEp)
{
    PolicyRig rig;
    StaticPolicy sc(rig.cfg, CompressorId::Sc);
    rig.attach(sc);

    EXPECT_FALSE(rig.engines.sc.hasCodes());
    // Drive one EP of accesses (256), with insertions training the VFT.
    Cycles now = 0;
    for (std::uint32_t i = 0; i < rig.cfg.latte.epAccesses; ++i) {
        const auto res =
            rig.cache.access(now, 0x100000 + i * 128, false);
        now = std::max(now + 1, res.readyCycle);
        rig.cache.processFills(now);
    }
    EXPECT_TRUE(rig.engines.sc.hasCodes());
    EXPECT_EQ(rig.engines.sc.generation(), 1u);
}

TEST(LatteCc, DedicatedSetMapping)
{
    PolicyRig rig;
    LatteCcPolicy latte(rig.cfg);
    rig.attach(latte);

    // 32 sets, 4 dedicated per mode -> stride 8; sets 0/1/2 mod 8 are
    // None/BDI/SC sampling sets while sampling is active.
    EXPECT_EQ(latte.modeForInsertion(0), CompressorId::None);
    EXPECT_EQ(latte.modeForInsertion(1), CompressorId::Bdi);
    EXPECT_EQ(latte.modeForInsertion(2), CompressorId::Sc);
    EXPECT_EQ(latte.modeForInsertion(8), CompressorId::None);
    EXPECT_EQ(latte.modeForInsertion(9), CompressorId::Bdi);
    // Follower sets get the winner (None initially).
    EXPECT_EQ(latte.modeForInsertion(3), CompressorId::None);
    EXPECT_EQ(latte.modeForInsertion(7), CompressorId::None);
}

TEST(LatteCc, CountersTrackDedicatedSets)
{
    PolicyRig rig;
    LatteCcPolicy latte(rig.cfg);
    rig.attach(latte);

    // Misses in BDI-dedicated set 1 -> nMiss[1] grows.
    latte.observeAccess({0, 1, /*hit=*/false, /*isWrite=*/false,
                         CompressorId::None});
    latte.observeAccess({0, 1, false, false, CompressorId::None});
    latte.observeAccess({0, 1, true, false, CompressorId::Bdi});
    EXPECT_EQ(latte.selector().misses(1), 2u);
    EXPECT_EQ(latte.selector().hits(1), 1u);
    // Follower sets are not counted.
    latte.observeAccess({0, 3, false, false, CompressorId::None});
    EXPECT_EQ(latte.selector().misses(0), 0u);
    // Writes are not counted.
    latte.observeAccess({0, 1, false, true, CompressorId::None});
    EXPECT_EQ(latte.selector().misses(1), 2u);
}

TEST(LatteCc, PicksLowLatencyModeWhenToleranceIsZero)
{
    PolicyRig rig;
    LatteCcPolicy latte(rig.cfg);
    rig.attach(latte);

    // Feed identical hit/miss profiles for every mode across EPs with
    // zero measured tolerance: the policy must not move off None, since
    // compression would only add exposed latency.
    for (int ep = 0; ep < 40; ++ep) {
        for (std::uint32_t i = 0; i < rig.cfg.latte.epAccesses; ++i) {
            const std::uint32_t set = i % rig.cache.numSets();
            latte.observeAccess({0, set, i % 2 == 0, false,
                                 CompressorId::None});
        }
    }
    EXPECT_EQ(latte.currentMode(), CompressorId::None);
}

TEST(LatteCc, SwitchesToScWhenItRemovesMisses)
{
    PolicyRig rig;
    LatteCcPolicy latte(rig.cfg);
    rig.attach(latte);

    // SC-dedicated sets (set % 8 == 2) mostly hit; others mostly miss.
    Rng rng(99);
    for (int ep = 0; ep < 60; ++ep) {
        for (std::uint32_t i = 0; i < rig.cfg.latte.epAccesses; ++i) {
            const std::uint32_t set = i % rig.cache.numSets();
            const bool hit =
                rng.chance(set % 8 == 2 ? 0.9 : 0.15);
            latte.observeAccess({0, set, hit, false,
                                 CompressorId::None});
        }
    }
    EXPECT_EQ(latte.currentMode(), CompressorId::Sc)
        << "a large sampled miss-rate gap must pull the winner to SC";
}

TEST(LatteCc, MismatchFlushWaitsForAStableHitSaturatedWindow)
{
    // onEpBoundary flushes the dedicated sets' compressed lines that are
    // not in the winner's mode only once the sampled window misses
    // under 2%, the winner has held for a whole period, and the EP is
    // past the learning phase and its hit tail.
    for (const bool saturated : {true, false}) {
        PolicyRig rig;
        LatteCcPolicy latte(rig.cfg);
        latte.bind(&rig.cache, &rig.engines, &rig.meter);

        // Zero lines (the image has no regions) compress under BDI. Set 1
        // samples BDI, set 3 follows; the winner stays None.
        StaticPolicy bdi(rig.cfg, CompressorId::Bdi);
        StaticPolicy raw(rig.cfg, CompressorId::None);
        const std::pair<std::uint32_t, Policy *> lines[] = {
            {1, &bdi}, {1, &raw}, {3, &bdi}};
        Cycles now = 0;
        for (std::uint32_t i = 0; i < std::size(lines); ++i) {
            rig.cache.setModeProvider(lines[i].second);
            const Addr addr =
                (static_cast<Addr>(i + 1) * rig.cache.numSets() +
                 lines[i].first) * 128;
            now = rig.cache.access(now, addr, false).readyCycle + 1;
            rig.cache.processFills(now);
        }
        ASSERT_EQ(rig.cache.compressedInsertions.count(), 2u);
        ASSERT_EQ(rig.cache.domain().validLines(), 3u);

        const LatteParams &params = rig.cfg.latte;
        const std::uint32_t flush_ep =
            params.periodEps + 2 * params.learningEps;
        for (std::uint32_t ep = 1; ep <= 2 * params.periodEps; ++ep) {
            // Sweep the sets in order; unsaturated, every fourth sweep
            // misses, so every mode samples the same 25% miss rate.
            for (std::uint32_t i = 0; i < params.epAccesses; ++i) {
                const std::uint32_t set = i % rig.cache.numSets();
                const bool hit =
                    saturated || (i / rig.cache.numSets()) % 4 != 0;
                latte.observeAccess({0, set, hit, false,
                                     CompressorId::None});
            }
            ASSERT_EQ(latte.currentMode(), CompressorId::None);
            EXPECT_EQ(rig.cache.domain().validLines(),
                      saturated && ep >= flush_ep ? 2u : 3u)
                << (saturated ? "saturated" : "25% misses") << ", EP "
                << ep;
        }
    }
}

TEST(AdaptiveHitCount, ChasesHitsIgnoringLatency)
{
    PolicyRig rig;
    AdaptiveHitCountPolicy policy(rig.cfg);
    rig.attach(policy);

    Rng rng(7);
    for (int ep = 0; ep < 60; ++ep) {
        for (std::uint32_t i = 0; i < rig.cfg.latte.epAccesses; ++i) {
            const std::uint32_t set = i % rig.cache.numSets();
            // SC sets hit notably more often than the others.
            const bool hit =
                rng.chance(set % 8 == 2 ? 0.9 : 0.5);
            policy.observeAccess({0, set, hit, false,
                                  CompressorId::None});
        }
    }
    EXPECT_EQ(policy.currentMode(), CompressorId::Sc);
}

TEST(Driver, PolicyFactoryCoversAllKinds)
{
    GpuConfig cfg;
    const PolicyKind kinds[] = {
        PolicyKind::Baseline,        PolicyKind::StaticBdi,
        PolicyKind::StaticSc,        PolicyKind::StaticBpc,
        PolicyKind::AdaptiveHitCount, PolicyKind::AdaptiveCmp,
        PolicyKind::LatteCc,         PolicyKind::LatteCcBdiBpc,
    };
    for (const PolicyKind kind : kinds) {
        const auto policy = makePolicy(kind, cfg);
        ASSERT_NE(policy, nullptr);
        EXPECT_EQ(policy->name(), policyName(kind));
    }
}

TEST(DriverDeath, KernelOptIsNotAProvider)
{
    GpuConfig cfg;
    EXPECT_DEATH((void)makePolicy(PolicyKind::KernelOpt, cfg),
                 "Kernel-OPT");
}
