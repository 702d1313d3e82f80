/**
 * @file
 * Unit tests for the DuelingModeSelector, driven directly with
 * synthetic dedicated-set counts: one test per rule of the shared
 * LATTE-CC decision (eligibility, the Eq. 2 ranking over Eq. 3
 * latencies, hysteresis, the capacity guard, an under-sampled
 * incumbent, the debounce and the counter decay).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "mem/dueling_selector.hh"

using namespace latte;

namespace
{

constexpr CompressorId kModes[] = {CompressorId::None, CompressorId::Bdi,
                                   CompressorId::Sc};
constexpr std::size_t kNone = 0, kBdi = 1, kSc = 2;

/** A tolerance that hides every candidate's hit latency. */
constexpr double kHideAll = 1000.0;

/** A selector over the default L1 geometry with idle queues. */
struct SelectorRig
{
    SelectorRig()
    {
        selector.bind(domain.numSets(), cfg.latte.dedicatedSetsPerMode,
                      cfg.l1.hitLatency, &domain, &engines);
    }

    /** Count @p hits and @p misses into candidate @p k's set k. */
    void
    feed(std::size_t k, std::uint64_t hits, std::uint64_t misses)
    {
        const auto set = static_cast<std::uint32_t>(k);
        for (std::uint64_t i = 0; i < hits; ++i)
            selector.count(set, true);
        for (std::uint64_t i = 0; i < misses; ++i)
            selector.count(set, false);
    }

    /** One EP vote at cycle 0. */
    bool
    vote(double tolerance, double miss_latency)
    {
        return selector.vote(0, tolerance, miss_latency, tracer, 0);
    }

    /** Eq. 2 for candidate @p k, as the selector computes it. */
    double
    amat(std::size_t k, double tolerance, double miss_latency) const
    {
        const double exposed = std::max(
            selector.effectiveHitLatency(k, 0) - tolerance, 0.0);
        const double rate =
            static_cast<double>(selector.misses(k)) /
            static_cast<double>(selector.hits(k) + selector.misses(k));
        return exposed + rate * (miss_latency - exposed);
    }

    GpuConfig cfg;
    StatGroup root{"root"};
    CompressionEngines engines{cfg};
    CompressionDomain domain{cfg.l1, cfg.l1Repl, true, &root};
    DuelingModeSelector selector{kModes, TraceEventKind::SamplerVote,
                                 TraceEventKind::ModeChange};
    Tracer *tracer = nullptr;
};

} // namespace

TEST(Selector, MapsDedicatedSetsAndCountsOnlyThem)
{
    SelectorRig rig;
    // 32 sets, 4 dedicated per mode -> stride 8.
    EXPECT_EQ(rig.selector.dedicatedIndex(0), 0);
    EXPECT_EQ(rig.selector.dedicatedIndex(9), 1);
    EXPECT_EQ(rig.selector.dedicatedIndex(26), 2);
    EXPECT_EQ(rig.selector.dedicatedIndex(3), -1);
    EXPECT_EQ(rig.selector.modeForInsertion(2, true), CompressorId::Sc);
    EXPECT_EQ(rig.selector.modeForInsertion(2, false), CompressorId::None);
    EXPECT_EQ(rig.selector.modeForInsertion(7, true), CompressorId::None);

    rig.selector.count(3, false); // follower: not counted
    rig.selector.count(17, true); // BDI's third dedicated set
    EXPECT_EQ(rig.selector.hits(kBdi), 1u);
    for (std::size_t k = 0; k < rig.selector.size(); ++k)
        EXPECT_EQ(rig.selector.misses(k), 0u);
}

TEST(Selector, EffectiveHitLatencyIsEq3)
{
    SelectorRig rig;
    const double base = static_cast<double>(rig.cfg.l1.hitLatency);
    EXPECT_DOUBLE_EQ(rig.selector.effectiveHitLatency(kNone, 0), base);
    // Idle queues: the pipeline plus the one-cycle queue slot.
    EXPECT_DOUBLE_EQ(rig.selector.effectiveHitLatency(kBdi, 0),
                     base + rig.cfg.timings.bdiDecompress + 1);
    EXPECT_DOUBLE_EQ(rig.selector.effectiveHitLatency(kSc, 0),
                     base + rig.cfg.timings.scDecompress + 1);
}

TEST(Selector, NeedsEightSamplesToVote)
{
    SelectorRig rig;
    rig.feed(kNone, 0, 8);
    rig.feed(kBdi, 7, 0); // a perfect but under-sampled challenger
    EXPECT_TRUE(rig.selector.eligible(kNone));
    EXPECT_FALSE(rig.selector.eligible(kBdi));
    for (int ep = 0; ep < 4; ++ep)
        EXPECT_FALSE(rig.vote(kHideAll, 100));
    EXPECT_EQ(rig.selector.winner(), CompressorId::None);

    rig.feed(kBdi, 1, 0); // the eighth sample
    EXPECT_TRUE(rig.selector.eligible(kBdi));
    EXPECT_FALSE(rig.vote(kHideAll, 100)); // pending
    EXPECT_TRUE(rig.vote(kHideAll, 100));
    EXPECT_EQ(rig.selector.winner(), CompressorId::Bdi);
}

TEST(Selector, RanksByEq2AmatAndRecordsVotes)
{
    SelectorRig rig;
    Tracer tracer(64);
    rig.tracer = &tracer;
    rig.feed(kNone, 70, 30);
    rig.feed(kBdi, 71, 29);
    rig.feed(kSc, 72, 28);

    // Unhidden latency: None's fast hits beat SC's slightly lower miss
    // rate, so the incumbent keeps winning.
    ASSERT_LT(rig.amat(kNone, 0, 100), rig.amat(kSc, 0, 100));
    EXPECT_FALSE(rig.vote(0, 100));
    EXPECT_FALSE(rig.vote(0, 100));
    EXPECT_EQ(rig.selector.winner(), CompressorId::None);

    // Tolerance hides every hit latency: the miss rate alone ranks.
    tracer.clear();
    EXPECT_FALSE(rig.vote(kHideAll, 100));
    EXPECT_TRUE(rig.vote(kHideAll, 100));
    EXPECT_EQ(rig.selector.winner(), CompressorId::Sc);
    EXPECT_DOUBLE_EQ(rig.selector.voteMargin(),
                     rig.amat(kBdi, kHideAll, 100) -
                         rig.amat(kSc, kHideAll, 100));

    // Vote payload: arg0 hits, arg1 misses, value AMAT; the mode
    // change carries the new winner and its AMAT.
    std::vector<TraceEvent> events;
    tracer.forEach([&](const TraceEvent &ev) { events.push_back(ev); });
    ASSERT_EQ(events.size(), 7u); // 2 votes x 3 candidates + 1 change
    EXPECT_EQ(events[2].kind, TraceEventKind::SamplerVote);
    EXPECT_EQ(events[2].mode, static_cast<std::uint8_t>(CompressorId::Sc));
    EXPECT_EQ(events[2].arg0, 72u);
    EXPECT_EQ(events[2].arg1, 28u);
    EXPECT_DOUBLE_EQ(events[2].value, rig.amat(kSc, kHideAll, 100));
    EXPECT_EQ(events[6].kind, TraceEventKind::ModeChange);
    EXPECT_EQ(events[6].mode, static_cast<std::uint8_t>(CompressorId::Sc));
    EXPECT_DOUBLE_EQ(events[6].value, rig.amat(kSc, kHideAll, 100));
    EXPECT_EQ(rig.selector.modeChanges(), 1u);
}

TEST(Selector, HysteresisKeepsIncumbentAtExactlyTwoPercent)
{
    SelectorRig rig;
    rig.feed(kNone, 50, 50);
    rig.feed(kBdi, 51, 49);
    // The challenger sits exactly on the 98% boundary.
    ASSERT_EQ(rig.amat(kBdi, kHideAll, 100),
              rig.amat(kNone, kHideAll, 100) * 0.98);
    for (int ep = 0; ep < 4; ++ep)
        EXPECT_FALSE(rig.vote(kHideAll, 100));
    EXPECT_EQ(rig.selector.winner(), CompressorId::None);

    // One more point of miss rate clears it.
    SelectorRig clear;
    clear.feed(kNone, 50, 50);
    clear.feed(kBdi, 52, 48);
    EXPECT_FALSE(clear.vote(kHideAll, 100));
    EXPECT_TRUE(clear.vote(kHideAll, 100));
    EXPECT_EQ(clear.selector.winner(), CompressorId::Bdi);
}

TEST(Selector, CapacityGuardStopsSlowChallengerWithoutMissGain)
{
    // SC adds exposed hit latency and wins the AMAT vote by more than
    // the hysteresis, but lowers the miss rate by only 1 point.
    SelectorRig rig;
    rig.feed(kNone, 80, 20);
    rig.feed(kSc, 81, 19);
    ASSERT_LT(rig.amat(kSc, 0, 10000),
              rig.amat(kNone, 0, 10000) * 0.98);
    for (int ep = 0; ep < 4; ++ep)
        EXPECT_FALSE(rig.vote(0, 10000));
    EXPECT_EQ(rig.selector.winner(), CompressorId::None);

    // Three points of miss-rate gain is real capacity: SC may switch.
    SelectorRig gain;
    gain.feed(kNone, 80, 20);
    gain.feed(kSc, 83, 17);
    EXPECT_FALSE(gain.vote(0, 10000));
    EXPECT_TRUE(gain.vote(0, 10000));
    EXPECT_EQ(gain.selector.winner(), CompressorId::Sc);
}

TEST(Selector, UnderSampledIncumbentOnlyYieldsToNoSlowerChallenger)
{
    // The incumbent (None) has no samples at all.
    SelectorRig rig;
    rig.feed(kBdi, 90, 10);
    // Exposed latency counts: BDI adds hit latency over an incumbent
    // with no measured miss rate, so the capacity guard holds.
    for (int ep = 0; ep < 4; ++ep)
        EXPECT_FALSE(rig.vote(0, 100));
    EXPECT_EQ(rig.selector.winner(), CompressorId::None);
    // With every latency hidden the hysteresis lets it past.
    EXPECT_FALSE(rig.vote(kHideAll, 100));
    EXPECT_TRUE(rig.vote(kHideAll, 100));
    EXPECT_EQ(rig.selector.winner(), CompressorId::Bdi);
}

TEST(Selector, DebounceCommitsOnTheSecondWin)
{
    // Miss rates None 0.5 > BDI 0.3 > SC 0.1 with unhidden latency: a
    // short miss latency favours BDI, a long one SC, a tiny one None.
    auto make = [](SelectorRig &rig) {
        rig.feed(kNone, 50, 50);
        rig.feed(kBdi, 70, 30);
        rig.feed(kSc, 90, 10);
    };
    constexpr double kBdiWins = 40, kScWins = 100, kNoneWins = 2;

    // The incumbent winning an EP in between does not reset a pending
    // challenger: its second win commits.
    SelectorRig rig;
    make(rig);
    EXPECT_FALSE(rig.vote(0, kBdiWins));
    EXPECT_FALSE(rig.vote(0, kNoneWins));
    EXPECT_EQ(rig.selector.winner(), CompressorId::None);
    EXPECT_TRUE(rig.vote(0, kBdiWins));
    EXPECT_EQ(rig.selector.winner(), CompressorId::Bdi);

    // A different challenger restarts the debounce.
    SelectorRig restart;
    make(restart);
    EXPECT_FALSE(restart.vote(0, kBdiWins));
    EXPECT_FALSE(restart.vote(0, kScWins));  // SC now pending
    EXPECT_FALSE(restart.vote(0, kBdiWins)); // BDI pending again
    EXPECT_EQ(restart.selector.winner(), CompressorId::None);
    EXPECT_TRUE(restart.vote(0, kBdiWins));
    EXPECT_EQ(restart.selector.winner(), CompressorId::Bdi);
    EXPECT_EQ(restart.selector.modeChanges(), 1u);
}

TEST(Selector, CountersDecayByAQuarter)
{
    SelectorRig rig;
    rig.feed(kBdi, 100, 7);
    rig.selector.decay();
    EXPECT_EQ(rig.selector.hits(kBdi), 75u);
    EXPECT_EQ(rig.selector.misses(kBdi), 6u);
    rig.selector.decay();
    EXPECT_EQ(rig.selector.hits(kBdi), 57u);
    EXPECT_EQ(rig.selector.misses(kBdi), 5u);

    // Eight samples fall below the minimum after one decay.
    rig.feed(kSc, 4, 4);
    EXPECT_TRUE(rig.selector.eligible(kSc));
    rig.selector.decay();
    EXPECT_EQ(rig.selector.hits(kSc) + rig.selector.misses(kSc), 6u);
    EXPECT_FALSE(rig.selector.eligible(kSc));
}
