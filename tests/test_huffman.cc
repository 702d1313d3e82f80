/**
 * @file
 * Focused tests for the canonical Huffman coder underlying SC: code
 * optimality properties, escape handling, determinism and edge cases,
 * plus a differential test against the priority-queue construction the
 * two-queue build replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <queue>
#include <random>
#include <unordered_map>

#include "common/rng.hh"
#include "compress/huffman.hh"

using namespace latte;

TEST(Huffman, EmptyFrequenciesStillBuildEscapeOnly)
{
    const HuffmanCode code = HuffmanCode::build({}, 1);
    EXPECT_TRUE(code.valid());
    EXPECT_EQ(code.numSymbols(), 0u);

    BitWriter bw;
    EXPECT_FALSE(code.encode(0xdeadbeef, bw));
    BitReader br(bw.bytes(), bw.bitSize());
    EXPECT_EQ(code.decode(br), 0xdeadbeefu);
}

TEST(Huffman, SingleSymbolGetsOneBitCode)
{
    const HuffmanCode code = HuffmanCode::build({{42, 100}}, 1);
    EXPECT_EQ(code.numSymbols(), 1u);
    EXPECT_LE(code.encodedBits(42), 1u + 1u);

    BitWriter bw;
    EXPECT_TRUE(code.encode(42, bw));
    BitReader br(bw.bytes(), bw.bitSize());
    EXPECT_EQ(code.decode(br), 42u);
}

TEST(Huffman, FrequentSymbolsGetShorterCodes)
{
    const HuffmanCode code = HuffmanCode::build(
        {{1, 1000}, {2, 100}, {3, 10}, {4, 1}}, 1);
    EXPECT_LE(code.encodedBits(1), code.encodedBits(2));
    EXPECT_LE(code.encodedBits(2), code.encodedBits(3));
    EXPECT_LE(code.encodedBits(3), code.encodedBits(4));
}

TEST(Huffman, ZeroWeightSymbolsDropped)
{
    const HuffmanCode code =
        HuffmanCode::build({{1, 10}, {2, 0}}, 1);
    EXPECT_EQ(code.numSymbols(), 1u);
    EXPECT_FALSE(code.hasCode(2));
    EXPECT_TRUE(code.hasCode(1));
}

TEST(Huffman, StreamOfMixedSymbolsRoundTrips)
{
    std::vector<HuffmanCode::Freq> freqs;
    for (std::uint32_t v = 0; v < 200; ++v)
        freqs.emplace_back(v * 7919, (v % 13) + 1);
    const HuffmanCode code = HuffmanCode::build(freqs, 4);

    Rng rng(3);
    std::vector<std::uint32_t> symbols;
    // 500 mixed symbols outgrow the hot-path writer; use a big one.
    BasicBitWriter<1 << 16> bw;
    for (int i = 0; i < 500; ++i) {
        // Mix coded symbols and escapes.
        const std::uint32_t value =
            rng.chance(0.8)
                ? static_cast<std::uint32_t>(rng.below(200)) * 7919
                : static_cast<std::uint32_t>(rng.next());
        symbols.push_back(value);
        code.encode(value, bw);
    }
    BitReader br(bw.bytes(), bw.bitSize());
    for (const std::uint32_t expected : symbols)
        ASSERT_EQ(code.decode(br), expected);
    EXPECT_EQ(br.remaining(), 0u);
}

TEST(Huffman, KraftInequalityHolds)
{
    std::vector<HuffmanCode::Freq> freqs;
    Rng rng(9);
    for (std::uint32_t v = 0; v < 300; ++v)
        freqs.emplace_back(v, rng.below(4096) + 1);
    const HuffmanCode code = HuffmanCode::build(freqs, 2);

    double kraft = 0;
    for (std::uint32_t v = 0; v < 300; ++v)
        kraft += std::pow(2.0, -double(code.encodedBits(v)));
    // Escape adds the remaining leaf; coded symbols alone must be < 1.
    EXPECT_LE(kraft, 1.0 + 1e-9);
}

TEST(Huffman, DeterministicAcrossBuilds)
{
    std::vector<HuffmanCode::Freq> freqs = {
        {10, 5}, {20, 5}, {30, 7}, {40, 7}};
    const HuffmanCode a = HuffmanCode::build(freqs, 1);
    const HuffmanCode b = HuffmanCode::build(freqs, 1);
    for (const auto &[symbol, weight] : freqs)
        EXPECT_EQ(a.encodedBits(symbol), b.encodedBits(symbol));
}

TEST(Huffman, NearOptimalAverageLength)
{
    // Uniform over 16 symbols: optimal average code length is 4 bits.
    std::vector<HuffmanCode::Freq> freqs;
    for (std::uint32_t v = 0; v < 16; ++v)
        freqs.emplace_back(v, 100);
    const HuffmanCode code = HuffmanCode::build(freqs, 1);
    double total = 0;
    for (std::uint32_t v = 0; v < 16; ++v)
        total += code.encodedBits(v);
    EXPECT_LE(total / 16.0, 5.0);
    EXPECT_GE(total / 16.0, 4.0);
}

// ------------------------------------------------- differential oracle

namespace
{

/** A code as it goes on the wire: the bit-reversed canonical code. */
struct WireCode
{
    std::uint64_t bits = 0;
    unsigned length = 0;
};

struct OracleBook
{
    std::unordered_map<std::uint32_t, WireCode> codes;
    WireCode escape;
};

/**
 * The construction HuffmanCode::build() used before its two-queue merge,
 * kept as the oracle: a binary heap ordered by (weight, creation order)
 * merges the tree, a depth walk reads the code lengths, and canonical
 * codes are assigned in (length, escape last, symbol) order.
 */
OracleBook
oracleBuild(const std::vector<HuffmanCode::Freq> &freqs,
            std::uint64_t escape_weight)
{
    struct Entry { std::uint32_t symbol; std::uint64_t weight; bool esc; };
    std::vector<Entry> entries;
    for (const auto &[symbol, weight] : freqs) {
        if (weight > 0)
            entries.push_back({symbol, weight, false});
    }
    entries.push_back({0, escape_weight, true});

    struct TreeNode
    {
        std::uint64_t weight;
        int index; //!< entry index; -1 = internal
        int left;
        int right;
        std::uint64_t order;
    };
    std::vector<TreeNode> pool;
    auto cmp = [&pool](int a, int b) {
        if (pool[a].weight != pool[b].weight)
            return pool[a].weight > pool[b].weight;
        return pool[a].order > pool[b].order;
    };
    std::priority_queue<int, std::vector<int>, decltype(cmp)> heap(cmp);
    for (std::size_t i = 0; i < entries.size(); ++i) {
        pool.push_back({entries[i].weight, static_cast<int>(i), -1, -1, i});
        heap.push(static_cast<int>(pool.size()) - 1);
    }
    std::uint64_t order = entries.size();
    while (heap.size() > 1) {
        const int a = heap.top();
        heap.pop();
        const int b = heap.top();
        heap.pop();
        pool.push_back({pool[a].weight + pool[b].weight, -1, a, b, order++});
        heap.push(static_cast<int>(pool.size()) - 1);
    }

    std::vector<unsigned> lengths(entries.size(), 0);
    std::vector<std::pair<int, unsigned>> stack{{heap.top(), 0}};
    while (!stack.empty()) {
        const auto [node, depth] = stack.back();
        stack.pop_back();
        if (pool[node].index >= 0) {
            lengths[pool[node].index] = std::max(depth, 1u);
            continue;
        }
        stack.push_back({pool[node].left, depth + 1});
        stack.push_back({pool[node].right, depth + 1});
    }

    std::vector<int> by_length(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i)
        by_length[i] = static_cast<int>(i);
    std::sort(by_length.begin(), by_length.end(), [&](int a, int b) {
        if (lengths[a] != lengths[b])
            return lengths[a] < lengths[b];
        if (entries[a].esc != entries[b].esc)
            return entries[b].esc;
        return entries[a].symbol < entries[b].symbol;
    });

    OracleBook book;
    std::uint64_t next_code = 0;
    unsigned prev_len = 0;
    for (const int idx : by_length) {
        const unsigned len = lengths[idx];
        next_code <<= (len - prev_len);
        prev_len = len;
        WireCode code{0, len};
        for (unsigned i = 0; i < len; ++i)
            code.bits |= ((next_code >> i) & 1) << (len - 1 - i);
        ++next_code;
        if (entries[idx].esc)
            book.escape = code;
        else
            book.codes[entries[idx].symbol] = code;
    }
    return book;
}

} // namespace

TEST(HuffmanDiff, MatchesPriorityQueueBuild)
{
    // Narrow weight ranges make ties common, and ties are where a merge
    // order that differs from the heap's would change code lengths.
    const std::uint64_t kMaxWeights[] = {3, 50, 4095};
    Rng rng(2024);
    for (int b = 0; b < 10000; ++b) {
        SCOPED_TRACE(testing::Message() << "book " << b);
        const std::size_t count =
            b % 10 == 0 ? 0 : b % 10 == 1 ? 1 : rng.below(1101);
        const std::uint64_t max_weight = kMaxWeights[b % 3];
        // Clustered small values and spread ones, both hash-hostile.
        std::vector<std::uint32_t> symbols;
        for (std::size_t i = 0; i < count; ++i) {
            symbols.push_back(static_cast<std::uint32_t>(
                rng.chance(0.5) ? rng.below(4096) : rng.next()));
        }
        std::sort(symbols.begin(), symbols.end());
        symbols.erase(std::unique(symbols.begin(), symbols.end()),
                      symbols.end());
        std::vector<HuffmanCode::Freq> freqs;
        for (const std::uint32_t symbol : symbols) {
            // One-symbol books keep their symbol.
            freqs.emplace_back(symbol, count == 1 ? 1 + rng.below(max_weight)
                                                  : rng.below(max_weight + 1));
        }
        const std::uint64_t escape_weight = 1 + rng.below(300);

        const OracleBook oracle = oracleBuild(freqs, escape_weight);
        const HuffmanCode book = HuffmanCode::build(freqs, escape_weight);
        ASSERT_EQ(book.numSymbols(), oracle.codes.size());
        for (const auto &[symbol, weight] : freqs) {
            const auto it = oracle.codes.find(symbol);
            ASSERT_EQ(book.hasCode(symbol), it != oracle.codes.end());
            ASSERT_EQ(book.encodedBits(symbol),
                      it != oracle.codes.end()
                          ? it->second.length
                          : oracle.escape.length + 32);
        }
        std::uint32_t absent = static_cast<std::uint32_t>(rng.next());
        while (oracle.codes.contains(absent))
            ++absent;
        ASSERT_EQ(book.encodedBits(absent), oracle.escape.length + 32);

        // Up to 64 coded symbols with one escape among them must go on
        // the wire as the oracle's bits and decode back.
        std::vector<std::uint32_t> coded, stream;
        for (const auto &[symbol, weight] : freqs) {
            if (weight > 0)
                coded.push_back(symbol);
        }
        for (std::uint64_t i = coded.empty() ? 0 : rng.below(65); i > 0; --i)
            stream.push_back(coded[rng.below(coded.size())]);
        stream.insert(stream.begin() + rng.below(stream.size() + 1), absent);
        BasicBitWriter<8192> got, want;
        for (const std::uint32_t value : stream) {
            const auto it = oracle.codes.find(value);
            ASSERT_EQ(book.encode(value, got), it != oracle.codes.end());
            const WireCode &code =
                it != oracle.codes.end() ? it->second : oracle.escape;
            want.write(code.bits, code.length);
            if (it == oracle.codes.end())
                want.write(value, 32);
        }
        ASSERT_EQ(got.bitSize(), want.bitSize());
        ASSERT_TRUE(std::equal(got.bytes().begin(), got.bytes().end(),
                               want.bytes().begin()));
        BitReader br(got.bytes(), got.bitSize());
        for (const std::uint32_t value : stream)
            ASSERT_EQ(book.decode(br), value);
        ASSERT_EQ(br.remaining(), 0u);
    }
}

TEST(HuffmanDiff, ShuffledInputBuildsTheSameBook)
{
    // build() orders its leaves itself, so neither the order of its
    // input nor a book rebuilt in place may change a code.
    const std::uint64_t kMaxWeights[] = {3, 50, 4095};
    Rng rng(2025);
    std::mt19937_64 shuffle_rng(7);
    HuffmanCode reused = HuffmanCode::build({{1, 1}, {2, 2}}, 1);
    for (int b = 0; b < 3000; ++b) {
        SCOPED_TRACE(testing::Message() << "book " << b);
        const std::size_t count = b % 10 == 0 ? 0 : rng.below(1101);
        const std::uint64_t max_weight = kMaxWeights[b % 3];
        std::vector<std::uint32_t> symbols;
        for (std::size_t i = 0; i < count; ++i) {
            symbols.push_back(static_cast<std::uint32_t>(
                rng.chance(0.5) ? rng.below(4096) : rng.next()));
        }
        std::sort(symbols.begin(), symbols.end());
        symbols.erase(std::unique(symbols.begin(), symbols.end()),
                      symbols.end());
        std::vector<HuffmanCode::Freq> freqs;
        for (const std::uint32_t symbol : symbols)
            freqs.emplace_back(symbol, rng.below(max_weight + 1));
        // Escape weights that tie with the symbols' and ones above 2^32.
        const std::uint64_t escape_weight =
            b % 7 == 0 ? (std::uint64_t{1} << 33) + rng.below(9)
                       : 1 + rng.below(max_weight);

        const HuffmanCode sorted = HuffmanCode::build(freqs, escape_weight);
        std::shuffle(freqs.begin(), freqs.end(), shuffle_rng);
        const HuffmanCode shuffled = HuffmanCode::build(freqs, escape_weight);
        reused.rebuild(freqs, escape_weight);

        std::uint32_t absent = static_cast<std::uint32_t>(rng.next());
        while (std::binary_search(symbols.begin(), symbols.end(), absent))
            ++absent;
        std::vector<std::uint32_t> stream{absent};
        for (const auto &[symbol, weight] : freqs) {
            if (stream.size() < 200)
                stream.push_back(symbol);
        }
        const HuffmanCode &rebuilt = reused;
        for (const HuffmanCode *book : {&shuffled, &rebuilt}) {
            ASSERT_EQ(book->numSymbols(), sorted.numSymbols());
            for (const auto &[symbol, weight] : freqs) {
                ASSERT_EQ(book->hasCode(symbol), sorted.hasCode(symbol));
                ASSERT_EQ(book->encodedBits(symbol),
                          sorted.encodedBits(symbol));
            }
            ASSERT_EQ(book->encodedBits(absent), sorted.encodedBits(absent));
            BasicBitWriter<1 << 15> got, want;
            for (const std::uint32_t value : stream) {
                book->encode(value, got);
                sorted.encode(value, want);
            }
            ASSERT_EQ(got.bitSize(), want.bitSize());
            ASSERT_TRUE(std::equal(got.bytes().begin(), got.bytes().end(),
                                   want.bytes().begin()));
            BitReader br(got.bytes(), got.bitSize());
            for (const std::uint32_t value : stream)
                ASSERT_EQ(book->decode(br), value);
        }
    }
}
