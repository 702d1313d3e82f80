/**
 * @file
 * Parameterised property tests: invariants that must hold across cache
 * geometries, value profiles and policy parameters, swept with TEST_P.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "cache/compressed_cache.hh"
#include "common/ep_clock.hh"
#include "compress/backend.hh"
#include "compress/engines.hh"
#include "workloads/value_gens.hh"

using namespace latte;

// ------------------------------------------------ cache geometry sweep

/** (l1 size KB, associativity, tag factor, sub-block bytes). */
using Geometry = std::tuple<unsigned, unsigned, unsigned, unsigned>;

class CacheGeometry : public ::testing::TestWithParam<Geometry>
{
  protected:
    void
    SetUp() override
    {
        const auto [kb, assoc, tag_factor, sub_block] = GetParam();
        cfg.l1.sizeBytes = kb * 1024;
        cfg.l1.assoc = assoc;
        cfg.l1.tagFactor = tag_factor;
        cfg.l1.subBlockBytes = sub_block;
        root = std::make_unique<StatGroup>("root");
        noc = std::make_unique<Interconnect>(cfg, root.get());
        dram = std::make_unique<DramModel>(cfg, root.get());
        l2 = std::make_unique<L2Cache>(cfg, noc.get(), dram.get(), &mem,
                                       root.get());
        engines = std::make_unique<CompressionEngines>(cfg);
        cache = std::make_unique<CompressedCache>(
            cfg, 0, engines.get(), l2.get(), &mem, root.get());
    }

    void
    install(Addr addr, Cycles &now)
    {
        const auto res = cache->access(now, addr, false);
        if (!res.rejected)
            now = std::max(now + 1, res.readyCycle + 1);
        cache->processFills(now);
    }

    GpuConfig cfg;
    MemoryImage mem;
    std::unique_ptr<StatGroup> root;
    std::unique_ptr<Interconnect> noc;
    std::unique_ptr<DramModel> dram;
    std::unique_ptr<L2Cache> l2;
    std::unique_ptr<CompressionEngines> engines;
    std::unique_ptr<CompressedCache> cache;
};

TEST_P(CacheGeometry, GeometryArithmeticConsistent)
{
    EXPECT_EQ(cache->numSets() * cfg.l1.assoc * cfg.l1.lineBytes,
              cfg.l1.sizeBytes);
    EXPECT_EQ(cache->domain().tagsPerSet(),
              cfg.l1.assoc * cfg.l1.tagFactor);
    EXPECT_EQ(cache->domain().subBlocksPerSet() * cfg.l1.subBlockBytes,
              cfg.l1.assoc * cfg.l1.lineBytes);
}

TEST_P(CacheGeometry, SubBlockUsageNeverExceedsCapacity)
{
    IntArrayGen gen(3, 50, 2, 4);
    Cycles now = 0;
    for (unsigned i = 0; i < 600; ++i) {
        const Addr addr = 0x20000000 + i * 128;
        std::array<std::uint8_t, 128> bytes;
        gen.generate(addr, bytes);
        mem.writeBytes(addr, bytes);
        install(addr, now);
    }
    EXPECT_LE(cache->domain().usedSubBlocks(),
              static_cast<std::uint64_t>(cache->numSets()) *
                  cache->domain().subBlocksPerSet());
    EXPECT_LE(cache->domain().validLines(),
              static_cast<std::uint64_t>(cache->numSets()) *
                  cache->domain().tagsPerSet());
}

TEST_P(CacheGeometry, HitAfterInstallAlways)
{
    Cycles now = 0;
    install(0x30000000, now);
    EXPECT_TRUE(cache->access(now, 0x30000000, false).hit);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(Geometry{16, 4, 4, 32},  // Table II default
                      Geometry{16, 4, 2, 32},  // fewer tags
                      Geometry{16, 4, 4, 64},  // coarser sub-blocks
                      Geometry{32, 4, 4, 32},  // bigger cache
                      Geometry{48, 4, 4, 32},  // Sec V-E configuration
                      Geometry{16, 8, 4, 32},  // higher associativity
                      Geometry{64, 4, 4, 32}));

// -------------------------------------------- compression never lies

/** (generator kind, seed). */
using ProfileParam = std::tuple<int, std::uint64_t>;

class CompressionInvariants
    : public ::testing::TestWithParam<ProfileParam>
{
  protected:
    std::shared_ptr<LineGenerator>
    makeGen() const
    {
        const auto [kind, seed] = GetParam();
        switch (kind) {
          case 0: return std::make_shared<ZeroGen>();
          case 1: return std::make_shared<RandomGen>(seed);
          case 2:
            return std::make_shared<IntArrayGen>(seed, 1000, 3, 5);
          case 3:
            return std::make_shared<IntArrayGen>(seed, 5, 60000, 0);
          case 4:
            return std::make_shared<PaletteGen>(seed, 48, true, 1.2,
                                                0.2);
          case 5:
            return std::make_shared<PointerArrayGen>(
                seed, 0x7f0000000000ull, 1 << 20);
          default:
            return std::make_shared<FloatNoiseGen>(seed, 1.0f, 0.8f);
        }
    }
};

TEST_P(CompressionInvariants, RoundTripAndSizeBounds)
{
    auto gen = makeGen();
    CompressionEngines engines{GpuConfig{}};
    std::array<std::uint8_t, 128> line;
    for (unsigned i = 0; i < 64; ++i) {
        gen->generate(i * 128, line);
        engines.sc.trainLine(line);
    }
    engines.sc.rebuildCodes();
    for (const CompressorId id : kAlgorithmIds) {
        Compressor &engine = *engines.get(id);
        for (unsigned i = 0; i < 48; ++i) {
            gen->generate(i * 128, line);
            const CompressedLine compressed = engine.compress(line);

            // Size invariants.
            ASSERT_GT(compressed.sizeBits, 0u);
            ASSERT_LE(compressed.sizeBits, kLineBits);
            ASSERT_GE(compressed.ratio(), 1.0);

            // Functional invariant: exact reconstruction.
            std::array<std::uint8_t, 128> decoded;
            engine.decompressInto(compressed, decoded);
            ASSERT_EQ(decoded, line)
                << compressorName(id) << " profile "
                << std::get<0>(GetParam());
        }
    }
}

TEST_P(CompressionInvariants, ProbeMatchesCompress)
{
    // The size-only probes are hand-tuned twins of the full encoders
    // (BDI's first-fit layout scan, FPC's fused classifier, SC's flat
    // length table), so this equivalence is load-bearing: insertLine()
    // trusts probe() for every placement decision. compress() is always
    // scalar, so sweeping the dispatch tiers here also pins every SIMD
    // kernel to the scalar encoding.
    auto gen = makeGen();
    const auto check = [&](Compressor &engine, unsigned lines) {
        for (unsigned i = 0; i < lines; ++i) {
            std::array<std::uint8_t, 128> line;
            gen->generate(i * 128, line);
            const LineMeta probed = engine.probe(line);
            const CompressedLine full = engine.compress(line);
            ASSERT_EQ(probed.algo, full.algo)
                << compressorName(engine.id()) << " line " << i;
            ASSERT_EQ(probed.encoding, full.encoding)
                << compressorName(engine.id()) << " line " << i;
            ASSERT_EQ(probed.sizeBits, full.sizeBits)
                << compressorName(engine.id()) << " line " << i;
            ASSERT_EQ(probed.generation, full.generation)
                << compressorName(engine.id()) << " line " << i;
        }
    };

    const CompressorBackend *entry_backend = &activeCompressorBackend();
    for (const CompressorBackend &backend : compressorBackends()) {
        if (!compressorBackendSupported(backend))
            continue;
        setCompressorBackend(backend);
        CompressionEngines engines{GpuConfig{}};
        for (const CompressorId id : kAlgorithmIds) {
            if (id != CompressorId::Sc) {
                check(*engines.get(id), 64);
                continue;
            }

            // SC changes behaviour with its Huffman generation:
            // exercise the untrained book, a trained one, and a rebuild
            // over a different sample window (different codes, bumped
            // generation).
            ScCompressor &sc = engines.sc;
            check(sc, 16);
            std::array<std::uint8_t, 128> line;
            for (unsigned i = 0; i < 64; ++i) {
                gen->generate(i * 128, line);
                sc.trainLine(line);
            }
            sc.rebuildCodes();
            check(sc, 64);
            for (unsigned i = 64; i < 96; ++i) {
                gen->generate(i * 128, line);
                sc.trainLine(line);
            }
            sc.rebuildCodes();
            check(sc, 64);
        }
    }
    setCompressorBackend(*entry_backend);
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, CompressionInvariants,
    ::testing::Combine(::testing::Range(0, 7),
                       ::testing::Values(11ull, 222ull, 3333ull)));

// ----------------------------------------- EP parameter sweep (LATTE)

class EpParams : public ::testing::TestWithParam<
                     std::tuple<std::uint32_t, std::uint32_t>>
{};

TEST_P(EpParams, ClockArithmeticHoldsForAllShapes)
{
    const auto [ep_accesses, period_eps] = GetParam();
    LatteParams params;
    params.epAccesses = ep_accesses;
    params.periodEps = period_eps;
    EpClock clock(params);

    const std::uint64_t total =
        static_cast<std::uint64_t>(ep_accesses) * period_eps * 3;
    std::uint64_t eps = 0, periods = 0;
    for (std::uint64_t i = 0; i < total; ++i) {
        const auto events = clock.onAccess();
        eps += events.epBoundary;
        periods += events.periodBoundary;
        EXPECT_LT(clock.epInPeriod(), period_eps);
    }
    EXPECT_EQ(eps, static_cast<std::uint64_t>(period_eps) * 3);
    EXPECT_EQ(periods, 3u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EpParams,
    ::testing::Combine(::testing::Values(64u, 256u, 1024u),
                       ::testing::Values(2u, 10u, 16u)));

