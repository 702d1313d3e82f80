/**
 * @file
 * Unit and property tests for the five compression engines: bit-exact
 * round trips over crafted and randomised lines, encoding selection, and
 * size accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "common/rng.hh"
#include "compress/bdi.hh"
#include "compress/bpc.hh"
#include "compress/engines.hh"

using namespace latte;

namespace
{

using Line = std::array<std::uint8_t, kLineBytes>;

Line
zeroLine()
{
    Line line{};
    return line;
}

Line
patternLine32(std::uint32_t (*f)(unsigned))
{
    Line line{};
    for (unsigned i = 0; i < kLineBytes / 4; ++i)
        storeLe(line.data() + 4 * i, f(i), 4);
    return line;
}

Line
randomLine(std::uint64_t seed)
{
    Line line;
    Rng rng(seed);
    for (unsigned i = 0; i < kLineBytes; i += 8)
        storeLe(line.data() + i, rng.next(), 8);
    return line;
}

void
expectRoundTrip(Compressor &engine, const Line &line)
{
    const CompressedLine compressed = engine.compress(line);
    Line decoded;
    engine.decompressInto(compressed, decoded);
    EXPECT_EQ(decoded, line)
        << compressorName(engine.id()) << " round trip failed (encoding "
        << int(compressed.encoding) << ")";
    EXPECT_LE(compressed.sizeBits, kLineBits)
        << compressorName(engine.id()) << " must never expand a line";
    EXPECT_GT(compressed.sizeBits, 0u);
}

} // namespace

// --------------------------------------------------------------- BDI

TEST(Bdi, ZeroLineUsesZeroEncoding)
{
    BdiCompressor bdi;
    const auto line = zeroLine();
    const auto c = bdi.compress(line);
    EXPECT_EQ(c.encoding, BdiCompressor::kEncZeros);
    EXPECT_LE(c.sizeBits, 8u);
    expectRoundTrip(bdi, line);
}

TEST(Bdi, Repeated8ByteValue)
{
    BdiCompressor bdi;
    Line line;
    for (unsigned i = 0; i < kLineBytes; i += 8)
        storeLe(line.data() + i, 0xdeadbeefcafef00dull, 8);
    const auto c = bdi.compress(line);
    EXPECT_EQ(c.encoding, BdiCompressor::kEncRep8);
    EXPECT_EQ(c.sizeBits, 64u);
    expectRoundTrip(bdi, line);
}

TEST(Bdi, SmallDeltaIntsCompress)
{
    BdiCompressor bdi;
    const auto line = patternLine32(
        [](unsigned i) { return 1000000u + i * 3; });
    const auto c = bdi.compress(line);
    EXPECT_LT(c.sizeBits, kLineBits / 2)
        << "small-delta ints should compress at least 2x";
    expectRoundTrip(bdi, line);
}

TEST(Bdi, PointersUseWideBase)
{
    BdiCompressor bdi;
    Line line;
    for (unsigned i = 0; i < kLineBytes; i += 8)
        storeLe(line.data() + i, 0x7f8090a0b000ull + (i % 64) * 8, 8);
    const auto c = bdi.compress(line);
    EXPECT_LT(c.sizeBits, kLineBits / 2);
    expectRoundTrip(bdi, line);
}

TEST(Bdi, RandomLineFallsBackToRaw)
{
    BdiCompressor bdi;
    const auto line = randomLine(42);
    const auto c = bdi.compress(line);
    EXPECT_EQ(c.encoding, kRawEncoding);
    EXPECT_EQ(c.sizeBits, kLineBits);
    expectRoundTrip(bdi, line);
}

TEST(Bdi, NegativeDeltasRoundTrip)
{
    BdiCompressor bdi;
    const auto line = patternLine32([](unsigned i) {
        return 5000u - i * 7;
    });
    expectRoundTrip(bdi, line);
}

TEST(Bdi, MixedImmediateAndBase)
{
    BdiCompressor bdi;
    // Alternate small values (immediates) and values near a large base.
    const auto line = patternLine32([](unsigned i) {
        return (i % 2) ? 0x40000000u + i : i;
    });
    expectRoundTrip(bdi, line);
}

TEST(Bdi, LatencyMatchesPaper)
{
    BdiCompressor bdi;
    EXPECT_EQ(bdi.compressLatency(), 2u);
    EXPECT_EQ(bdi.decompressLatency(), 2u);
    // Energies are priced by EnergyModel from the same timings.
    const CompressorTimings timings;
    EXPECT_DOUBLE_EQ(timings.bdiCompressNj, 0.192);
    EXPECT_DOUBLE_EQ(timings.bdiDecompressNj, 0.056);
}

// --------------------------------------------------------------- FPC

TEST(Fpc, ZeroLineCompressesToRuns)
{
    FpcCompressor fpc;
    const auto line = zeroLine();
    const auto c = fpc.compress(line);
    // 32 zero words -> 4 max-length runs of 8 -> 4 * 6 bits.
    EXPECT_EQ(c.sizeBits, 24u);
    expectRoundTrip(fpc, line);
}

TEST(Fpc, SmallSignedValues)
{
    FpcCompressor fpc;
    const auto line = patternLine32([](unsigned i) {
        return static_cast<std::uint32_t>(
            static_cast<std::int32_t>(i % 16) - 8);
    });
    const auto c = fpc.compress(line);
    EXPECT_LT(c.sizeBits, kLineBits / 2);
    expectRoundTrip(fpc, line);
}

TEST(Fpc, RepeatedBytePattern)
{
    FpcCompressor fpc;
    const auto line = patternLine32(
        [](unsigned) { return 0xabababab; });
    const auto c = fpc.compress(line);
    EXPECT_EQ(c.sizeBits, 32u * 11u);
    expectRoundTrip(fpc, line);
}

TEST(Fpc, ZeroPaddedHalfwords)
{
    FpcCompressor fpc;
    const auto line = patternLine32([](unsigned i) {
        return (0x4000u + i) << 16;
    });
    expectRoundTrip(fpc, line);
}

TEST(Fpc, TwoHalfwordsSignExtended)
{
    FpcCompressor fpc;
    const auto line = patternLine32([](unsigned i) {
        const std::uint16_t lo = static_cast<std::uint16_t>(
            static_cast<std::int16_t>(-5 - static_cast<int>(i % 3)));
        const std::uint16_t hi = static_cast<std::uint16_t>(i % 7);
        return (static_cast<std::uint32_t>(hi) << 16) | lo;
    });
    expectRoundTrip(fpc, line);
}

TEST(Fpc, IncompressibleFallsBack)
{
    FpcCompressor fpc;
    const auto line = randomLine(77);
    const auto c = fpc.compress(line);
    EXPECT_EQ(c.encoding, kRawEncoding);
    expectRoundTrip(fpc, line);
}

// ------------------------------------------------------------- CPACK-Z

TEST(Cpack, ZeroLineDetected)
{
    CpackCompressor cpack;
    const auto line = zeroLine();
    const auto c = cpack.compress(line);
    EXPECT_EQ(c.encoding, CpackCompressor::kEncZeroLine);
    EXPECT_EQ(c.sizeBits, 8u);
    expectRoundTrip(cpack, line);
}

TEST(Cpack, RepeatedWordsHitDictionary)
{
    CpackCompressor cpack;
    const auto line = patternLine32([](unsigned i) {
        return 0xdead0000u + (i % 4) * 0x1111;
    });
    const auto c = cpack.compress(line);
    // After 4 unique words everything is a 6-bit dictionary hit.
    EXPECT_LT(c.sizeBits, 4 * 34 + 28 * 6 + 8u);
    expectRoundTrip(cpack, line);
}

TEST(Cpack, PartialMatchesUpper24)
{
    CpackCompressor cpack;
    const auto line = patternLine32([](unsigned i) {
        return 0xaabbcc00u | (i & 0xff);
    });
    expectRoundTrip(cpack, line);
}

TEST(Cpack, LowByteOnlyWords)
{
    CpackCompressor cpack;
    const auto line = patternLine32(
        [](unsigned i) { return i & 0xffu; });
    expectRoundTrip(cpack, line);
}

TEST(Cpack, RandomLineFallsBack)
{
    CpackCompressor cpack;
    const auto line = randomLine(1234);
    expectRoundTrip(cpack, line);
}

// --------------------------------------------------------------- BPC

TEST(Bpc, ZeroLine)
{
    BpcCompressor bpc;
    const auto line = zeroLine();
    const auto c = bpc.compress(line);
    EXPECT_LT(c.sizeBits, 32u);
    expectRoundTrip(bpc, line);
}

TEST(Bpc, ConstantStrideRampCompressesHard)
{
    BpcCompressor bpc;
    // Constant large stride: deltas identical -> DBX planes all zero.
    const auto line = patternLine32([](unsigned i) {
        return 123456u + i * 50000u;
    });
    const auto c = bpc.compress(line);
    EXPECT_LT(c.sizeBits, kLineBits / 6)
        << "linear ramps are BPC's best case";
    expectRoundTrip(bpc, line);
}

TEST(Bpc, NoisyRampStillCompresses)
{
    BpcCompressor bpc;
    const auto line = patternLine32([](unsigned i) {
        return 1000u + i * 4 + (i % 3);
    });
    const auto c = bpc.compress(line);
    EXPECT_LT(c.sizeBits, kLineBits / 2);
    expectRoundTrip(bpc, line);
}

TEST(Bpc, NegativeStride)
{
    BpcCompressor bpc;
    const auto line = patternLine32([](unsigned i) {
        return 0x70000000u - i * 0x10001u;
    });
    expectRoundTrip(bpc, line);
}

TEST(Bpc, RandomLineFallsBack)
{
    BpcCompressor bpc;
    const auto line = randomLine(999);
    const auto c = bpc.compress(line);
    EXPECT_EQ(c.sizeBits, kLineBits);
    expectRoundTrip(bpc, line);
}

TEST(Bpc, WrapAroundDeltas)
{
    BpcCompressor bpc;
    // Deltas that wrap the 32-bit space exercise the 33-bit delta path.
    const auto line = patternLine32([](unsigned i) {
        return (i % 2) ? 0xfffffff0u : 0x00000010u;
    });
    expectRoundTrip(bpc, line);
}

// ---------------------------------------------------------------- SC

TEST(Sc, RawBeforeCodesExist)
{
    ScCompressor sc;
    const auto line = patternLine32([](unsigned) { return 7u; });
    const auto c = sc.compress(line);
    EXPECT_EQ(c.encoding, kRawEncoding);
    EXPECT_EQ(c.sizeBits, kLineBits);
    expectRoundTrip(sc, line);
}

TEST(Sc, PaletteDataCompressesAfterTraining)
{
    ScCompressor sc;
    const std::uint32_t palette[4] = {0x3f800000, 0x40000000,
                                      0x40400000, 0x40800000};
    Rng rng(5);
    std::vector<Line> lines;
    for (unsigned n = 0; n < 64; ++n) {
        Line line;
        for (unsigned i = 0; i < kLineBytes / 4; ++i)
            storeLe(line.data() + 4 * i, palette[rng.below(4)], 4);
        lines.push_back(line);
        sc.trainLine(line);
    }
    sc.rebuildCodes();
    EXPECT_TRUE(sc.hasCodes());
    EXPECT_EQ(sc.generation(), 1u);

    double total_bits = 0;
    for (const auto &line : lines) {
        const auto c = sc.compress(line);
        total_bits += c.sizeBits;
        expectRoundTrip(sc, line);
    }
    // 4 roughly equiprobable symbols -> ~2 bits per 32-bit word.
    EXPECT_LT(total_bits / lines.size(), kLineBits / 8.0);
}

TEST(Sc, EscapeValuesRoundTrip)
{
    ScCompressor sc;
    Line trained{};
    for (unsigned i = 0; i < kLineBytes / 4; ++i)
        storeLe(trained.data() + 4 * i, 0xaaaa5555u, 4);
    sc.trainLine(trained);
    sc.rebuildCodes();

    // A line full of values SC never saw must escape and round trip.
    const auto line = randomLine(31337);
    const auto c = sc.compress(line);
    expectRoundTrip(sc, line);
}

TEST(Sc, GenerationBumpOnRebuild)
{
    ScCompressor sc;
    Line line{};
    sc.trainLine(line);
    EXPECT_EQ(sc.rebuildCodes(), 1u);
    sc.trainLine(line);
    EXPECT_EQ(sc.rebuildCodes(), 2u);
}

TEST(Sc, VftSaturatesAtCapacity)
{
    ValueFrequencyTable vft(16, 12);
    for (std::uint32_t v = 0; v < 64; ++v)
        vft.record(v);
    EXPECT_EQ(vft.size(), 16u);
    EXPECT_EQ(vft.misses(), 48u);
}

TEST(Sc, VftCountersSaturate)
{
    ValueFrequencyTable vft(4, 4); // counters max out at 15
    for (unsigned i = 0; i < 100; ++i)
        vft.record(42);
    const auto snapshot = vft.snapshot();
    ASSERT_EQ(snapshot.size(), 1u);
    EXPECT_EQ(snapshot[0].second, 15u);
}

// ------------------------------------- VFT and drift-check differentials

namespace
{

/** Heap bytes in use (0 where the allocator does not report them). */
std::size_t
heapBytesInUse()
{
#ifdef __GLIBC__
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
#else
    return 0;
#endif
}

/** @p values' words packed into lines (the last one topped up). */
std::vector<Line>
packLines(const std::vector<std::uint32_t> &values)
{
    std::vector<Line> lines((values.size() + 31) / 32);
    for (std::size_t i = 0; i < lines.size() * 32; ++i) {
        storeLe(lines[i / 32].data() + 4 * (i % 32),
                values[i < values.size() ? i : i % values.size()], 4);
    }
    return lines;
}

/**
 * The drift check as `codeDivergence() > limit` computed it before the
 * bounded decision: the VFT in value order, std::sort'ed by descending
 * count, and the fraction of its first 64 values without a code.
 */
bool
fullSortDivergenceAbove(const ScCompressor &sc, double limit)
{
    if (!sc.hasCodes())
        return 1.0 > limit;
    auto freqs = sc.vft().snapshot();
    if (freqs.empty())
        return 0.0 > limit;
    std::sort(freqs.begin(), freqs.end());
    std::sort(freqs.begin(), freqs.end(),
              [](const auto &a, const auto &b) {
                  return a.second > b.second;
              });
    const std::size_t top = std::min<std::size_t>(freqs.size(), 64);
    std::size_t missing = 0;
    for (std::size_t i = 0; i < top; ++i) {
        if (!sc.codeBook().hasCode(freqs[i].first))
            ++missing;
    }
    return static_cast<double>(missing) / static_cast<double>(top) > limit;
}

} // namespace

TEST(VftDiff, MatchesMapOracle)
{
    // Small tables overflow (misses), narrow counters saturate, and a
    // clear() now and then starts a new window.
    Rng rng(41);
    for (int trial = 0; trial < 300; ++trial) {
        SCOPED_TRACE(testing::Message() << "trial " << trial);
        const auto entries = static_cast<std::uint32_t>(
            1 + rng.below(trial % 3 == 0 ? 40 : 1500));
        const auto bits = static_cast<std::uint32_t>(1 + rng.below(12));
        const std::uint32_t counter_max = (1u << bits) - 1;
        ValueFrequencyTable vft(entries, bits);
        std::map<std::uint32_t, std::uint32_t> ref;
        std::uint64_t misses = 0, samples = 0;

        // Clustered small values and spread ones, a few of them hot.
        std::vector<std::uint32_t> pool(1 + rng.below(3000));
        for (std::uint32_t &value : pool) {
            value = static_cast<std::uint32_t>(
                rng.chance(0.5) ? rng.below(4096) : rng.next());
        }
        const auto check = [&] {
            ASSERT_EQ(vft.size(), ref.size());
            ASSERT_EQ(vft.misses(), misses);
            ASSERT_EQ(vft.samples(), samples);
            auto got = vft.snapshot();
            std::sort(got.begin(), got.end());
            ASSERT_EQ(got.size(), ref.size());
            auto it = ref.begin();
            for (const auto &[value, count] : got) {
                ASSERT_EQ(value, it->first);
                ASSERT_EQ(count, it->second);
                ++it;
            }
        };
        for (int step = 0; step < 6000; ++step) {
            if (rng.chance(0.0005)) {
                vft.clear();
                ref.clear();
                misses = samples = 0;
                ASSERT_NO_FATAL_FAILURE(check());
            }
            const std::uint32_t value =
                pool[rng.chance(0.3) ? rng.below(std::min<std::size_t>(
                                           pool.size(), 8))
                                     : rng.below(pool.size())];
            vft.record(value);
            ++samples;
            if (const auto it = ref.find(value); it != ref.end())
                it->second = std::min(it->second + 1, counter_max);
            else if (ref.size() < entries)
                ref.emplace(value, 1);
            else
                ++misses;
            if (step % 1000 == 999) {
                ASSERT_NO_FATAL_FAILURE(check());
            }
        }
        ASSERT_NO_FATAL_FAILURE(check());
    }
}

TEST(Sc, VftWithUint32MaxEntriesGrowsWithItsContents)
{
    // cfg.latte.vft_entries is bounded only by uint32: the table must
    // grow with the values it holds, not be sized from its limit.
    const std::size_t before = heapBytesInUse();
    LatteParams params;
    params.vftEntries = std::numeric_limits<std::uint32_t>::max();
    ScCompressor sc({}, params);
    ValueFrequencyTable vft(std::numeric_limits<std::uint32_t>::max(), 12);
    for (std::uint32_t v = 0; v < 1000; ++v)
        vft.record(v * 7919);
    EXPECT_EQ(vft.size(), 1000u);
    EXPECT_EQ(vft.misses(), 0u);
    EXPECT_LT(heapBytesInUse() - before, std::size_t{1} << 20);
}

TEST(ScDrift, BoundedDecisionMatchesFullSort)
{
    // Values drawn a few times each tie at the 64th-largest count, so
    // which of them the sort puts in the top decides many answers.
    const double kLimits[] = {0.0, 0.1, 0.3, 0.5, 0.95};
    Rng rng(43);
    for (int trial = 0; trial < 1500; ++trial) {
        SCOPED_TRACE(testing::Message() << "trial " << trial);
        LatteParams params;
        params.vftEntries =
            static_cast<std::uint32_t>(trial % 4 == 0 ? 48 : 1024);
        ScCompressor sc({}, params);
        const auto draw = [&](std::size_t distinct, std::uint64_t repeat) {
            std::vector<std::uint32_t> values;
            for (std::size_t i = 0; i < distinct; ++i) {
                const auto value =
                    static_cast<std::uint32_t>(rng.below(2000));
                for (std::uint64_t k = 1 + rng.below(repeat); k > 0; --k)
                    values.push_back(value);
            }
            for (std::size_t i = values.size(); i > 1; --i)
                std::swap(values[i - 1], values[rng.below(i)]);
            return values;
        };
        // A code book over one palette (none every tenth trial), then a
        // sampling window over an overlapping one.
        if (trial % 10 != 0) {
            for (const Line &line : packLines(draw(1 + rng.below(300), 4)))
                sc.trainLine(line);
            sc.rebuildCodes();
        }
        if (trial % 10 != 1) {
            const std::size_t distinct = 1 + rng.below(trial % 2 ? 90 : 900);
            for (const Line &line :
                 packLines(draw(distinct, 1 + rng.below(4))))
                sc.trainLine(line);
        }
        for (const double limit : kLimits) {
            ASSERT_EQ(sc.codeDivergenceAbove(limit),
                      fullSortDivergenceAbove(sc, limit))
                << "limit " << limit << ", " << sc.vft().size()
                << " entries";
        }
    }
}

// ------------------------------------------------ Cross-algorithm sweeps

class RoundTripAllAlgorithms
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(RoundTripAllAlgorithms, RandomisedLines)
{
    const std::uint64_t seed = GetParam();
    Rng rng(seed);

    CompressionEngines engines{GpuConfig{}};
    for (unsigned i = 0; i < 16; ++i)
        engines.sc.trainLine(randomLine(seed + i));
    engines.sc.rebuildCodes();
    for (const CompressorId id : kAlgorithmIds) {
        Compressor &engine = *engines.get(id);

        for (unsigned n = 0; n < 16; ++n) {
            // Mix of structured and unstructured lines.
            Line line;
            const auto kind = rng.below(4);
            switch (kind) {
              case 0:
                line = randomLine(rng.next());
                break;
              case 1:
                line = patternLine32([](unsigned i) { return i * 17; });
                break;
              case 2:
                line = zeroLine();
                break;
              default: {
                line = randomLine(rng.next());
                // Sparse: zero most of it.
                for (unsigned i = 0; i < kLineBytes; ++i)
                    if (i % 16 != 0)
                        line[i] = 0;
                break;
              }
            }
            expectRoundTrip(engine, line);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripAllAlgorithms,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));
