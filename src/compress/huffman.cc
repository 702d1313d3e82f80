#include "huffman.hh"

#include <algorithm>
#include <array>
#include <utility>

#include "common/logging.hh"

namespace latte
{

namespace
{

/** @p code's low @p len bits in reverse order: its wire form. */
std::uint64_t
reverseCode(std::uint64_t code, unsigned len)
{
    code = (code >> 1 & 0x5555555555555555ull) |
           (code & 0x5555555555555555ull) << 1;
    code = (code >> 2 & 0x3333333333333333ull) |
           (code & 0x3333333333333333ull) << 2;
    code = (code >> 4 & 0x0f0f0f0f0f0f0f0full) |
           (code & 0x0f0f0f0f0f0f0f0full) << 4;
    return __builtin_bswap64(code) >> (64 - len);
}

/**
 * Sort @p keys ascending with @p scratch as the second buffer: an LSD
 * radix sort by bytes that skips the bytes all keys share. The keys
 * are up to about a thousand packed (weight or length, symbol) words,
 * where a few linear passes cost less than a comparison sort.
 */
void
radixSort(std::vector<std::uint64_t> &keys,
          std::vector<std::uint64_t> &scratch)
{
    // Only the bytes in which some keys differ need a pass.
    std::uint64_t differ = 0;
    for (const std::uint64_t key : keys)
        differ |= key ^ keys[0];
    std::array<unsigned, 8> shifts{};
    std::size_t passes = 0;
    for (unsigned shift = 0; shift < 64; shift += 8) {
        if (differ >> shift & 0xff)
            shifts[passes++] = shift;
    }
    std::array<std::array<std::uint32_t, 256>, 8> counts{};
    for (const std::uint64_t key : keys) {
        for (std::size_t p = 0; p < passes; ++p)
            ++counts[p][key >> shifts[p] & 0xff];
    }
    scratch.resize(keys.size());
    for (std::size_t p = 0; p < passes; ++p) {
        const unsigned shift = shifts[p];
        std::array<std::uint32_t, 256> &at = counts[p];
        std::uint32_t sum = 0;
        for (std::uint32_t &count : at)
            sum += std::exchange(count, sum);
        for (const std::uint64_t key : keys)
            scratch[at[key >> shift & 0xff]++] = key;
        keys.swap(scratch);
    }
}

} // namespace

void
HuffmanCode::rebuild(std::span<const Freq> freqs,
                     std::uint64_t escape_weight)
{
    latte_assert(escape_weight >= 1);

    // Packed sort keys, node weights (also the sorts' second buffer),
    // and parent links that become depths.
    std::vector<std::uint64_t> keys, weights;
    std::vector<std::uint32_t> links;

    // Leaves in (weight, escape last, symbol) order, from one sort of
    // (weight, symbol) keys with the escape placed after its weight:
    // the order a stable sort by weight gives symbol-sorted input with
    // the escape appended, so the book does not depend on input order.
    keys.reserve(freqs.size() + 1);
    for (const auto &[symbol, weight] : freqs) {
        if (weight == 0)
            continue;
        latte_assert(weight <= 0xffffffffu, "weight {} above 2^32 - 1",
                     weight);
        keys.push_back(weight << 32 | symbol);
    }
    radixSort(keys, weights);
    const auto escape_leaf =
        escape_weight > 0xffffffffu
            ? keys.end()
            : std::upper_bound(keys.begin(), keys.end(),
                               escape_weight << 32 | 0xffffffffu);
    // From here a leaf's key holds its (escape, symbol) bits only.
    const auto escape = static_cast<std::size_t>(escape_leaf - keys.begin());
    keys.insert(escape_leaf, std::uint64_t{1} << 32);
    const std::size_t n = keys.size();

    // Two-queue Huffman merge over leaves 0..n-1 (in the order above)
    // and merged nodes n..2n-2 (in creation order, so the root is
    // last). Merged weights never decrease, so taking the lighter head
    // of the sorted leaves and the merged FIFO — a leaf winning a tie —
    // merges in the (weight, creation order) sequence of a min-heap
    // over all nodes: the deterministic tie-break the code lengths rely
    // on.
    weights.resize(2 * n - 1);
    links.resize(2 * n - 1);
    for (std::size_t i = 0; i < n; ++i) {
        weights[i] = i == escape ? escape_weight : keys[i] >> 32;
        if (i != escape)
            keys[i] &= 0xffffffffu;
    }
    std::size_t next_leaf = 0, next_merged = n;
    for (std::size_t node = n; node < 2 * n - 1; ++node) {
        auto take = [&] {
            const bool leaf =
                next_leaf < n && (next_merged == node ||
                                  weights[next_leaf] <=
                                      weights[next_merged]);
            return leaf ? next_leaf++ : next_merged++;
        };
        const std::size_t a = take();
        const std::size_t b = take();
        weights[node] = weights[a] + weights[b];
        links[a] = links[b] = static_cast<std::uint32_t>(node);
    }

    // Parents come after their children, so one backward pass turns
    // each parent link into a depth, the root's being 0. An escape-only
    // tree still needs a 1-bit code.
    links[2 * n - 2] = n == 1 ? 1 : 0;
    for (std::size_t node = 2 * n - 2; node-- > 0;)
        links[node] = links[links[node]] + 1;

    // Canonicalise: sort (length, escape last, symbol) keys and assign
    // increasing codes.
    for (std::size_t i = 0; i < n; ++i)
        keys[i] |= std::uint64_t{links[i]} << 33;
    radixSort(keys, weights);

    lens_.clear();
    wireCodes_.clear();
    filter_.clear();
    lenMask_ = filterMask_ = 0;
    if (n > 1) {
        // Quarter-full at most, so linear probes terminate quickly; and
        // eight filter bits per symbol (12.5% false positives).
        std::size_t capacity = 16, filter_bits = 64;
        while (capacity < (n - 1) * 4)
            capacity *= 2;
        while (filter_bits < (n - 1) * 8)
            filter_bits *= 2;
        lens_.resize(capacity);
        wireCodes_.resize(capacity);
        lenMask_ = capacity - 1;
        filter_.resize(filter_bits / 64);
        filterMask_ = filter_bits - 1;
    }
    lengthCounts_.assign((keys.back() >> 33) + 1, 0);
    canonical_.clear();
    std::uint64_t next_code = 0;
    unsigned prev_len = 0;
    for (const std::uint64_t key : keys) {
        const auto len = static_cast<unsigned>(key >> 33);
        latte_assert(len >= 1 && len <= 64, "code length {} out of range",
                     len);
        next_code <<= (len - prev_len);
        prev_len = len;
        const std::uint64_t wire = reverseCode(next_code, len);
        ++next_code;
        ++lengthCounts_[len];
        const auto symbol = static_cast<std::uint32_t>(key);
        if (key >> 32 & 1) {
            escapeIndex_ = canonical_.size();
            escapeWire_ = wire;
            escapeLength_ = len;
        } else {
            const std::uint32_t hash = symbol * 0x9e3779b9u;
            std::size_t i = hash & lenMask_;
            while (lens_[i].bits != 0)
                i = (i + 1) & lenMask_;
            lens_[i] = {symbol, len};
            wireCodes_[i] = wire;
            const std::size_t bit = hash & filterMask_;
            filter_[bit / 64] |= std::uint64_t{1} << (bit % 64);
        }
        canonical_.push_back(symbol);
    }
}

std::uint32_t
HuffmanCode::decode(BitReader &br) const
{
    latte_assert(valid(), "decode on an empty code book");
    // The canonical codes of one length are consecutive integers, the
    // first following from the shorter lengths: read MSB-first until
    // the code falls inside its length's range.
    std::uint64_t code = 0, first = 0;
    std::size_t index = 0;
    for (std::size_t len = 1; len < lengthCounts_.size(); ++len) {
        code |= br.readBit();
        const std::uint32_t count = lengthCounts_[len];
        if (code - first < count) {
            index += code - first;
            if (index == escapeIndex_)
                return static_cast<std::uint32_t>(br.read(32));
            return canonical_[index];
        }
        index += count;
        first = (first + count) << 1;
        code <<= 1;
    }
    latte_panic("invalid Huffman bit stream");
}

} // namespace latte
