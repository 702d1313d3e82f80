/**
 * @file
 * Unit tests for the compressed L1 data cache: tag/sub-block accounting,
 * the 4x-tag capacity expansion, write-avoid semantics, MSHR merging,
 * the order due fills insert in, decompression queueing, SC
 * generation invalidation, the sampled-set mismatch flush, which fills
 * read their line from the memory image, and the round-trip verifier
 * and duplicate-fill checks firing.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "cache/compressed_cache.hh"
#include "common/config.hh"
#include "core/policies.hh"
#include "trace/tracer.hh"
#include "workloads/value_gens.hh"

using namespace latte;

namespace
{

class CacheFixture : public ::testing::Test
{
  protected:
    explicit CacheFixture(CacheTuning tuning = {})
        : root("root"), noc(cfg, &root), dram(cfg, &root),
          l2(cfg, &noc, &dram, &mem, &root), engines(cfg),
          cache(cfg, 0, &engines, &l2, &mem, &root, tuning)
    {}

    /** Fill a line in memory with highly BDI-compressible data. */
    void
    makeCompressible(Addr line_addr)
    {
        std::array<std::uint8_t, 128> bytes{};
        for (unsigned i = 0; i < 32; ++i)
            storeLe(bytes.data() + 4 * i, 1000 + i, 4);
        mem.writeBytes(line_addr, bytes);
    }

    /** Fill a line with incompressible noise. */
    void
    makeRandom(Addr line_addr, std::uint64_t seed)
    {
        std::array<std::uint8_t, 128> bytes;
        Rng rng(seed);
        for (unsigned i = 0; i < 128; i += 8)
            storeLe(bytes.data() + i, rng.next(), 8);
        mem.writeBytes(line_addr, bytes);
    }

    /** Miss on a line, then advance past the fill so it inserts. */
    void
    installLine(Addr addr, Cycles &now)
    {
        const auto res = cache.access(now, addr, false);
        EXPECT_FALSE(res.hit);
        now = res.readyCycle + 1;
        cache.processFills(now);
    }

    /** Address mapping to a specific set with a distinct tag. */
    Addr
    addrInSet(std::uint32_t set, std::uint32_t tag) const
    {
        return (static_cast<Addr>(tag) * cache.numSets() + set) * 128;
    }

    GpuConfig cfg;
    StatGroup root;
    MemoryImage mem;
    Interconnect noc;
    DramModel dram;
    L2Cache l2;
    CompressionEngines engines;
    CompressedCache cache;
};

/** Fixture variant: insert everything with a fixed mode. */
class StaticModeProvider : public CompressionModeProvider
{
  public:
    explicit StaticModeProvider(CompressorId mode) : mode_(mode) {}
    CompressorId modeForInsertion(std::uint32_t) override { return mode_; }

  private:
    CompressorId mode_;
};

/** Inserts with whatever mode the test set last. */
struct SettableModeProvider : public CompressionModeProvider
{
    CompressorId mode = CompressorId::None;
    CompressorId modeForInsertion(std::uint32_t) override { return mode; }
};

} // namespace

TEST_F(CacheFixture, GeometryMatchesTableII)
{
    EXPECT_EQ(cache.numSets(), 32u);
    EXPECT_EQ(cache.domain().tagsPerSet(), 16u); // 4x tags
    // 4 lines x 4 sub-blocks
    EXPECT_EQ(cache.domain().subBlocksPerSet(), 16u);
}

TEST_F(CacheFixture, MissThenHit)
{
    Cycles now = 0;
    installLine(0x1000, now);
    EXPECT_EQ(cache.misses.count(), 1u);
    EXPECT_EQ(cache.insertions.count(), 1u);

    const auto hit = cache.access(now, 0x1000, false);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.readyCycle, now + cfg.l1.hitLatency);
}

TEST_F(CacheFixture, SecondaryMissMerges)
{
    const auto first = cache.access(0, 0x2000, false);
    const auto second = cache.access(1, 0x2040, false); // same line
    EXPECT_FALSE(second.hit);
    EXPECT_TRUE(second.merged);
    EXPECT_EQ(second.readyCycle, first.readyCycle);
    EXPECT_EQ(cache.mergedMisses.count(), 1u);
    EXPECT_EQ(cache.misses.count(), 1u);
}

TEST_F(CacheFixture, DueFillsInsertInAllocationOrderAtTheirOwnCycles)
{
    // Two misses to one set whose fills are both due by the next access,
    // the later-allocated one first. The reply network serialises L2
    // replies in request order, so through the L2 a later miss never
    // fills first: the second MSHR is allocated directly.
    const Addr first = addrInSet(9, 1);
    const Addr second = addrInSet(9, 2);
    Tracer tracer;
    cache.setTracer(&tracer);

    const auto a = cache.access(100, first, false);
    ASSERT_FALSE(a.hit);
    const Cycles second_fill = a.readyCycle - 50;
    ASSERT_GT(second_fill, 101u);
    cache.mshrs.allocate(second, second_fill);
    EXPECT_EQ(cache.access(101, second, false).readyCycle, second_fill);
    Cycles now = a.readyCycle + 1;
    EXPECT_FALSE(cache.access(now, addrInSet(10, 1), false).hit);

    std::vector<std::pair<Addr, Cycles>> inserts;
    tracer.forEach([&](const TraceEvent &ev) {
        if (ev.kind == TraceEventKind::L1Insert)
            inserts.emplace_back(ev.arg0, ev.ts);
    });
    ASSERT_EQ(inserts.size(), 2u);
    EXPECT_EQ(inserts[0], std::pair(first, a.readyCycle));
    EXPECT_EQ(inserts[1], std::pair(second, second_fill));

    // Filled in allocation order, the first line is the LRU victim once
    // two more lines fill the set and a fifth needs room.
    cache.setTracer(nullptr);
    installLine(addrInSet(9, 3), now);
    installLine(addrInSet(9, 4), now);
    installLine(addrInSet(9, 5), now);
    EXPECT_TRUE(cache.access(now, second, false).hit);
    EXPECT_FALSE(cache.access(now, first, false).hit);
}

TEST_F(CacheFixture, MshrExhaustionRejects)
{
    // Fill all MSHRs with distinct lines.
    for (std::uint32_t i = 0; i < cfg.l1.mshrEntries; ++i)
        cache.access(0, 0x100000 + i * 128, false);
    const auto res = cache.access(0, 0x900000, false);
    EXPECT_TRUE(res.rejected);
    EXPECT_EQ(cache.rejections.count(), 1u);
}

TEST_F(CacheFixture, UncompressedSetHoldsFourLines)
{
    Cycles now = 0;
    for (std::uint32_t t = 0; t < 5; ++t)
        installLine(addrInSet(3, t + 1), now);
    // Fifth line evicts the LRU first line.
    EXPECT_EQ(cache.evictions.count(), 1u);
    const auto res = cache.access(now, addrInSet(3, 1), false);
    EXPECT_FALSE(res.hit);
}

TEST_F(CacheFixture, CompressionExpandsCapacity)
{
    StaticModeProvider bdi(CompressorId::Bdi);
    cache.setModeProvider(&bdi);

    Cycles now = 0;
    // 8 compressible lines in one set: all should fit (BDI ~36 B
    // -> 2 sub-blocks each, 16 sub-blocks and 16 tags available).
    for (std::uint32_t t = 0; t < 8; ++t) {
        makeCompressible(addrInSet(5, t + 1));
        installLine(addrInSet(5, t + 1), now);
    }
    EXPECT_EQ(cache.evictions.count(), 0u);
    for (std::uint32_t t = 0; t < 8; ++t) {
        const auto res = cache.access(now, addrInSet(5, t + 1), false);
        EXPECT_TRUE(res.hit) << "line " << t;
        now = res.readyCycle;
    }
    EXPECT_EQ(cache.compressedInsertions.count(), 8u);
}

TEST_F(CacheFixture, IncompressibleLinesTakeFullSpace)
{
    StaticModeProvider bdi(CompressorId::Bdi);
    cache.setModeProvider(&bdi);

    Cycles now = 0;
    for (std::uint32_t t = 0; t < 5; ++t) {
        makeRandom(addrInSet(6, t + 1), 100 + t);
        installLine(addrInSet(6, t + 1), now);
    }
    // Random data stays raw: capacity is the baseline 4 lines.
    EXPECT_GE(cache.evictions.count(), 1u);
}

TEST_F(CacheFixture, CompressedHitPaysDecompression)
{
    StaticModeProvider bdi(CompressorId::Bdi);
    cache.setModeProvider(&bdi);

    Cycles now = 0;
    makeCompressible(0x4000);
    installLine(0x4000, now);

    const auto hit = cache.access(now, 0x4000, false);
    EXPECT_TRUE(hit.hit);
    // hit latency + BDI decompression (2) + queue position 0 + 1.
    EXPECT_EQ(hit.readyCycle,
              now + cfg.l1.hitLatency + cfg.timings.bdiDecompress + 1);
    EXPECT_EQ(cache.domain().queueFor(CompressorId::Bdi).requests.count(),
              1u);
}

TEST_F(CacheFixture, DecompressionQueueBacklogGrows)
{
    StaticModeProvider bdi(CompressorId::Bdi);
    cache.setModeProvider(&bdi);

    Cycles now = 0;
    makeCompressible(0x4000);
    installLine(0x4000, now);

    const auto h1 = cache.access(now, 0x4000, false);
    const auto h2 = cache.access(now, 0x4000, false);
    EXPECT_GT(h2.readyCycle, h1.readyCycle)
        << "second concurrent hit must queue behind the first";
}

TEST_F(CacheFixture, WriteHitInvalidatesLine)
{
    Cycles now = 0;
    installLine(0x5000, now);
    const auto write = cache.access(now, 0x5000, true);
    EXPECT_TRUE(write.hit);
    EXPECT_EQ(cache.writeInvalidations.count(), 1u);

    const auto read = cache.access(now + 1, 0x5000, false);
    EXPECT_FALSE(read.hit) << "write-avoid must drop the cached copy";
}

TEST_F(CacheFixture, WriteMissDoesNotAllocate)
{
    const auto write = cache.access(0, 0x6000, true);
    EXPECT_FALSE(write.hit);
    EXPECT_EQ(cache.insertions.count(), 0u);
    EXPECT_EQ(l2.writes.count(), 1u);
}

TEST_F(CacheFixture, EffectiveCapacityCountsUncompressedSize)
{
    StaticModeProvider bdi(CompressorId::Bdi);
    cache.setModeProvider(&bdi);
    Cycles now = 0;
    for (std::uint32_t t = 0; t < 6; ++t) {
        makeCompressible(addrInSet(7, t + 1));
        installLine(addrInSet(7, t + 1), now);
    }
    EXPECT_EQ(cache.domain().effectiveCapacityBytes(), 6u * 128u);
    EXPECT_LT(cache.domain().usedSubBlocks(), 6u * 4u);
}

TEST_F(CacheFixture, ScGenerationInvalidation)
{
    StaticModeProvider sc_mode(CompressorId::Sc);
    cache.setModeProvider(&sc_mode);

    // Train and build codes so SC actually compresses.
    Cycles now = 0;
    makeCompressible(0x7000);
    engines.sc.trainLine(mem.line(0x7000));
    engines.sc.rebuildCodes();

    installLine(0x7000, now);
    EXPECT_TRUE(cache.access(now, 0x7000, false).hit);

    // Retire the generation: the line must be dropped.
    const auto generation = engines.sc.rebuildCodes();
    cache.invalidateScGeneration(generation);
    EXPECT_EQ(cache.scGenerationInvalidations.count(), 1u);
    EXPECT_FALSE(cache.access(now + 1, 0x7000, false).hit);
}

TEST_F(CacheFixture, SampleMismatchFlushDropsOnlyDedicatedNonWinnerLines)
{
    // LATTE-CC's sampling: 32 sets, 4 dedicated per mode -> stride 8,
    // so sets 0/1/2 mod 8 sample None/BDI/SC and the rest follow. BDI
    // has won the vote.
    const CompressorId modes[] = {CompressorId::None, CompressorId::Bdi,
                                  CompressorId::Sc};
    DuelingModeSelector selector(modes, TraceEventKind::SamplerVote,
                                 TraceEventKind::ModeChange);
    selector.bind(cache.numSets(), cfg.latte.dedicatedSetsPerMode,
                  cfg.l1.hitLatency, &cache.domain(), &engines);
    ASSERT_TRUE(selector.switchTo(1, 0, 0.0, nullptr, 0));

    // Every line holds the same BDI- and SC-compressible bytes.
    makeCompressible(addrInSet(0, 100));
    engines.sc.trainLine(mem.line(addrInSet(0, 100)));
    engines.sc.rebuildCodes();

    struct Placed
    {
        std::uint32_t set;
        CompressorId mode;
        bool stays;
    };
    const Placed placed[] = {
        {0, CompressorId::Sc, false},  {0, CompressorId::None, true},
        {1, CompressorId::Sc, false},  {1, CompressorId::Bdi, true},
        {2, CompressorId::Sc, false},  {2, CompressorId::Bdi, true},
        {2, CompressorId::None, true}, {3, CompressorId::Sc, true},
        {3, CompressorId::Bdi, true},  {3, CompressorId::None, true},
    };
    SettableModeProvider provider;
    cache.setModeProvider(&provider);
    Cycles now = 0;
    for (std::uint32_t i = 0; i < std::size(placed); ++i) {
        const Addr addr = addrInSet(placed[i].set, i + 1);
        makeCompressible(addr);
        provider.mode = placed[i].mode;
        installLine(addr, now);
    }
    ASSERT_EQ(cache.compressedInsertions.count(), 7u);
    ASSERT_EQ(cache.evictions.count(), 0u);

    cache.invalidateSampleMismatch(selector);
    EXPECT_EQ(cache.domain().validLines(), 7u);
    for (std::uint32_t i = 0; i < std::size(placed); ++i) {
        const Addr addr = addrInSet(placed[i].set, i + 1);
        EXPECT_EQ(cache.access(now, addr, false).hit, placed[i].stays)
            << "set " << placed[i].set << ", "
            << compressorName(placed[i].mode) << " line";
    }
}

TEST_F(CacheFixture, PerSetSubBlockCounterTracksTagWalk)
{
    // usedSubBlocksCounter() is maintained incrementally on every
    // insert/evict/invalidate; it must agree with the O(tags) walk at
    // every step of a churny mixed workload.
    StaticModeProvider bdi(CompressorId::Bdi);
    cache.setModeProvider(&bdi);

    const auto check_all = [&](const char *when) {
        for (std::uint32_t set = 0; set < cache.numSets(); ++set) {
            ASSERT_EQ(cache.domain().usedSubBlocksCounter(set),
                      cache.domain().usedSubBlocksInSet(set))
                << when << ", set " << set;
        }
    };

    Cycles now = 0;
    check_all("empty");
    for (std::uint32_t t = 0; t < 24; ++t) {
        // Alternate compressible and incompressible lines over two sets
        // so inserts force evictions of both shapes.
        const Addr addr = addrInSet(t % 2 ? 3 : 11, t + 1);
        if (t % 3)
            makeCompressible(addr);
        else
            makeRandom(addr, t);
        installLine(addr, now);
        check_all("after install");
    }

    const Addr victim = addrInSet(3, 24);
    const auto write = cache.access(now, victim, true);
    if (write.hit)
        check_all("after write invalidation");
}

namespace
{

/** LATTE-CC that counts its fills by whether they needed the bytes. */
class FillReadCounter final : public LatteCcPolicy
{
  public:
    using LatteCcPolicy::LatteCcPolicy;

    void
    observeInsertion(Cycles now, std::uint32_t set_index, CompressorId mode,
                     std::span<const std::uint8_t> data) override
    {
        const bool compressed = mode != CompressorId::None;
        const bool trains = readsInsertionBytes();
        if (data.size() != (compressed || trains ? kLineBytes : 0u))
            ++wrongSizes;
        if (compressed)
            ++compressedFills;
        else if (trains)
            ++trainingFills;
        else
            ++unreadFills;
        LatteCcPolicy::observeInsertion(now, set_index, mode, data);
    }

    std::size_t compressedFills = 0;
    std::size_t trainingFills = 0; //!< raw, inside an SC training window
    std::size_t unreadFills = 0;
    /** Fills whose bytes were read when not needed, or the reverse. */
    std::size_t wrongSizes = 0;
};

} // namespace

TEST_F(CacheFixture, UnreadLinesStayUnmaterialised)
{
    // Each fill below is of a line no fill touched before, so the image
    // holds exactly the lines some fill read.
    Cycles now = 0;
    Addr next = 0x100000;
    const auto install = [&](std::size_t lines) {
        for (std::size_t i = 0; i < lines; ++i, next += 128)
            installLine(next, now);
    };

    // The uncompressed baseline reads no line.
    install(64);
    EXPECT_EQ(cache.insertions.count(), 64u);
    EXPECT_EQ(mem.residentLines(), 0u);

    // Static BDI probes, so reads, every line it fills.
    StaticModeProvider bdi(CompressorId::Bdi);
    cache.setModeProvider(&bdi);
    install(64);
    EXPECT_EQ(mem.residentLines(), 64u);

    // LATTE-CC over a whole period and into the next: every compressed
    // fill and every fill in an SC training window (the first EP and
    // each period's last) reads its line, and no other fill does.
    FillReadCounter latte(cfg);
    latte.bind(&cache, &engines, nullptr);
    cache.setModeProvider(&latte);
    install(cfg.latte.epAccesses * (cfg.latte.periodEps + 2));
    EXPECT_GT(latte.compressedFills, 0u);
    EXPECT_GT(latte.trainingFills, 0u);
    EXPECT_GT(latte.unreadFills, 0u);
    EXPECT_EQ(latte.wrongSizes, 0u);
    EXPECT_EQ(mem.residentLines(),
              64u + latte.compressedFills + latte.trainingFills);
}

// ------------------------------- tuning knobs used by Figures 3 and 4

namespace
{

class NoCapacityFixture : public CacheFixture
{
  protected:
    NoCapacityFixture()
        : CacheFixture(CacheTuning{.capacityBenefit = false,
                                   .chargeDecompression = true,
                                   .verifyRoundTrip = false})
    {}
};

class FreeLatencyFixture : public CacheFixture
{
  protected:
    FreeLatencyFixture()
        : CacheFixture(CacheTuning{.capacityBenefit = true,
                                   .chargeDecompression = false,
                                   .verifyRoundTrip = false})
    {}
};

class VerifyFixture : public CacheFixture
{
  protected:
    VerifyFixture()
        : CacheFixture(CacheTuning{.capacityBenefit = true,
                                   .chargeDecompression = true,
                                   .verifyRoundTrip = true})
    {}
};

/** The verifier's death tests. */
class VerifyDeath : public VerifyFixture
{};

/** The tag store's death tests. */
class CacheDeath : public CacheFixture
{};

} // namespace

TEST_F(NoCapacityFixture, CompressedLinesStillTakeFullSpace)
{
    StaticModeProvider bdi(CompressorId::Bdi);
    cache.setModeProvider(&bdi);
    Cycles now = 0;
    for (std::uint32_t t = 0; t < 5; ++t) {
        makeCompressible(addrInSet(2, t + 1));
        installLine(addrInSet(2, t + 1), now);
    }
    EXPECT_GE(cache.evictions.count(), 1u)
        << "without the capacity benefit the set holds 4 lines";
}

TEST_F(FreeLatencyFixture, CompressedHitsCostBaseLatency)
{
    StaticModeProvider bdi(CompressorId::Bdi);
    cache.setModeProvider(&bdi);
    Cycles now = 0;
    makeCompressible(0x4000);
    installLine(0x4000, now);
    const auto hit = cache.access(now, 0x4000, false);
    EXPECT_EQ(hit.readyCycle, now + cfg.l1.hitLatency);
}

TEST_F(VerifyFixture, RoundTripVerifiedOnHits)
{
    StaticModeProvider bdi(CompressorId::Bdi);
    cache.setModeProvider(&bdi);
    Cycles now = 0;
    makeCompressible(0xa000);
    installLine(0xa000, now);
    EXPECT_TRUE(cache.access(now, 0xa000, false).hit);
}

TEST_F(VerifyDeath, CorruptedBdiLinePanicsOnItsNextHit)
{
    StaticModeProvider bdi(CompressorId::Bdi);
    cache.setModeProvider(&bdi);
    Cycles now = 0;
    makeCompressible(0xa000);
    installLine(0xa000, now);
    ASSERT_EQ(cache.compressedInsertions.count(), 1u);
    ASSERT_TRUE(cache.access(now, 0xa000, false).hit);

    // The stored encoding no longer decodes to the image's bytes.
    makeRandom(0xa000, 5);
    EXPECT_DEATH(cache.access(now + 1, 0xa000, false),
                 "round-trip mismatch");
}

TEST_F(VerifyDeath, CorruptedScLinePanicsOnItsNextHit)
{
    StaticModeProvider sc_mode(CompressorId::Sc);
    cache.setModeProvider(&sc_mode);
    Cycles now = 0;
    makeCompressible(0x7000);
    engines.sc.trainLine(mem.line(0x7000));
    engines.sc.rebuildCodes();
    installLine(0x7000, now);
    ASSERT_EQ(cache.compressedInsertions.count(), 1u);
    ASSERT_TRUE(cache.access(now, 0x7000, false).hit);

    makeRandom(0x7000, 7);
    EXPECT_DEATH(cache.access(now + 1, 0x7000, false),
                 "round-trip mismatch");
}

TEST_F(CacheDeath, FillingAResidentLinePanics)
{
    // The MSHR file merges every later miss to an outstanding line, so
    // a fill never finds its line resident; the domain asserts it.
    Cycles now = 0;
    installLine(0x3000, now);
    cache.mshrs.allocate(0x3000, now + 5);
    EXPECT_DEATH(cache.processFills(now + 5), "filled twice");
}
