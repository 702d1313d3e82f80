/**
 * @file
 * Unit tests for the common utilities: bit streams, sign extension,
 * formatting, RNG determinism and the statistics framework.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/bit_utils.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"

using namespace latte;

// ----------------------------------------------------------- bit utils

TEST(BitUtils, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_TRUE(isPowerOfTwo(1024));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_FALSE(isPowerOfTwo(768));
}

TEST(BitUtils, Log2Exact)
{
    EXPECT_EQ(log2Exact(1), 0u);
    EXPECT_EQ(log2Exact(2), 1u);
    EXPECT_EQ(log2Exact(4096), 12u);
}

TEST(BitUtils, RoundUpAndDivCeil)
{
    EXPECT_EQ(roundUp(0, 32), 0u);
    EXPECT_EQ(roundUp(1, 32), 32u);
    EXPECT_EQ(roundUp(32, 32), 32u);
    EXPECT_EQ(roundUp(33, 32), 64u);
    EXPECT_EQ(divCeil(0, 8), 0u);
    EXPECT_EQ(divCeil(1, 8), 1u);
    EXPECT_EQ(divCeil(8, 8), 1u);
    EXPECT_EQ(divCeil(9, 8), 2u);
}

TEST(BitUtils, SignExtend)
{
    EXPECT_EQ(signExtend(0x7f, 8), 127);
    EXPECT_EQ(signExtend(0x80, 8), -128);
    EXPECT_EQ(signExtend(0xff, 8), -1);
    EXPECT_EQ(signExtend(0xffff, 16), -1);
    EXPECT_EQ(signExtend(0x8000, 16), -32768);
    EXPECT_EQ(signExtend(0x1ffffffffull, 33), -1);
    EXPECT_EQ(signExtend(0x0ffffffffull, 33), 0xffffffffll);
}

TEST(BitUtils, FitsSigned)
{
    EXPECT_TRUE(fitsSigned(127, 1));
    EXPECT_TRUE(fitsSigned(-128, 1));
    EXPECT_FALSE(fitsSigned(128, 1));
    EXPECT_FALSE(fitsSigned(-129, 1));
    EXPECT_TRUE(fitsSigned(32767, 2));
    EXPECT_FALSE(fitsSigned(32768, 2));
    EXPECT_TRUE(fitsSigned(~0ll, 8));
}

TEST(BitUtils, LoadStoreLittleEndian)
{
    std::uint8_t buf[8] = {};
    storeLe(buf, 0x0123456789abcdefull, 8);
    EXPECT_EQ(buf[0], 0xef);
    EXPECT_EQ(buf[7], 0x01);
    EXPECT_EQ(loadLe(buf, 8), 0x0123456789abcdefull);
    EXPECT_EQ(loadLe(buf, 2), 0xcdefull);
    EXPECT_EQ(loadLe(buf, 4), 0x89abcdefull);
}

TEST(BitStream, WriteReadRoundTrip)
{
    BitWriter bw;
    bw.write(0b101, 3);
    bw.write(0xdeadbeef, 32);
    bw.pushBit(true);
    bw.write(0x3ff, 10);
    EXPECT_EQ(bw.bitSize(), 46u);

    BitReader br(bw.bytes(), bw.bitSize());
    EXPECT_EQ(br.read(3), 0b101u);
    EXPECT_EQ(br.read(32), 0xdeadbeefu);
    EXPECT_TRUE(br.readBit());
    EXPECT_EQ(br.read(10), 0x3ffu);
    EXPECT_EQ(br.remaining(), 0u);
}

TEST(BitStream, SixtyFourBitValues)
{
    BitWriter bw;
    bw.write(~0ull, 64);
    bw.write(0, 64);
    BitReader br(bw.bytes(), bw.bitSize());
    EXPECT_EQ(br.read(64), ~0ull);
    EXPECT_EQ(br.read(64), 0ull);
}

TEST(BitStream, WordAtATimeMatchesPerBitReference)
{
    // The writer and reader move whole words per call; pin them against
    // the obviously-correct bit-by-bit path over random mixed widths.
    Rng rng(99);
    for (unsigned trial = 0; trial < 50; ++trial) {
        BitWriter fast;
        BitWriter reference;
        std::vector<std::pair<std::uint64_t, unsigned>> writes;
        while (fast.bitSize() < 1100) {
            const unsigned width =
                1 + static_cast<unsigned>(rng.below(64));
            const std::uint64_t value =
                rng.next() & (width == 64 ? ~0ull
                                          : (1ull << width) - 1);
            fast.write(value, width);
            for (unsigned i = 0; i < width; ++i)
                reference.pushBit((value >> i) & 1);
            writes.emplace_back(value, width);
        }
        ASSERT_EQ(fast.bitSize(), reference.bitSize());
        const auto fast_bytes = fast.bytes();
        const auto ref_bytes = reference.bytes();
        ASSERT_TRUE(std::equal(fast_bytes.begin(), fast_bytes.end(),
                               ref_bytes.begin(), ref_bytes.end()))
            << "trial " << trial;

        BitReader words(fast.bytes(), fast.bitSize());
        BitReader bits(fast.bytes(), fast.bitSize());
        for (const auto &[value, width] : writes) {
            ASSERT_EQ(words.read(width), value);
            std::uint64_t rebuilt = 0;
            for (unsigned i = 0; i < width; ++i)
                rebuilt |= static_cast<std::uint64_t>(bits.readBit())
                           << i;
            ASSERT_EQ(rebuilt, value);
        }
        EXPECT_EQ(words.remaining(), 0u);
    }
}

// ------------------------------------------------------------- logging
// The structured logger itself (levels, scopes, JSON records, sink) is
// covered by the Logging fixture suite in test_logging.cc.

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(latte_panic("boom {}", 42), "boom 42");
}

TEST(LoggingDeath, AssertAborts)
{
    EXPECT_DEATH(latte_assert(false, "ctx {}", 7), "assertion failed");
}

// ----------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123), c(124);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool differs = false;
    Rng a2(123);
    for (int i = 0; i < 100; ++i)
        differs |= a2.next() != c.next();
    EXPECT_TRUE(differs);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        hit_lo |= v == -3;
        hit_hi |= v == 3;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

// ---------------------------------------------------------------- stats

TEST(Stats, CounterBasics)
{
    StatGroup group("g");
    Counter c(&group, "c", "test counter");
    EXPECT_EQ(c.count(), 0u);
    ++c;
    c += 5;
    EXPECT_EQ(c.count(), 6u);
    EXPECT_DOUBLE_EQ(c.value(), 6.0);
}

TEST(Stats, AverageBasics)
{
    StatGroup group("g");
    Average a(&group, "a", "test average");
    EXPECT_DOUBLE_EQ(a.value(), 0.0);
    a.sample(2);
    a.sample(4);
    EXPECT_DOUBLE_EQ(a.value(), 3.0);
    EXPECT_EQ(a.samples(), 2u);
}

TEST(Stats, GroupHierarchyAndLookup)
{
    StatGroup root("root");
    StatGroup child("child", &root);
    Counter c(&child, "c", "nested");
    c += 3;

    std::map<std::string, double> all;
    root.collect(all);
    EXPECT_DOUBLE_EQ(all.at("root.child.c"), 3.0);
}

// ------------------------------------------------------------- geomean

TEST(Stats, GeomeanOfPositives)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({2.0, 2.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({1.0}), 1.0);
}

TEST(Stats, GeomeanSkipsNonPositiveEntries)
{
    // Zero and negative ratios (failed/degenerate runs) must not poison
    // the mean with -inf or NaN; they are skipped with a warning.
    EXPECT_DOUBLE_EQ(geomean({4.0, 0.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({4.0, -3.0, 1.0}), 2.0);
}

TEST(Stats, GeomeanOfNothingIsZero)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({0.0, -1.0}), 0.0);
}
