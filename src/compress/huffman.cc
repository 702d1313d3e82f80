#include "huffman.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"

namespace latte
{

HuffmanCode
HuffmanCode::build(const std::vector<Freq> &freqs,
                   std::uint64_t escape_weight)
{
    latte_assert(escape_weight >= 1);

    // Symbol table: all nonzero-weight values plus the escape at the end.
    struct Entry { std::uint32_t symbol; std::uint64_t weight; bool esc; };
    std::vector<Entry> entries;
    entries.reserve(freqs.size() + 1);
    for (const auto &[symbol, weight] : freqs) {
        if (weight > 0)
            entries.push_back({symbol, weight, false});
    }
    entries.push_back({0, escape_weight, true});
    const std::size_t n = entries.size();

    // Two-queue Huffman merge over nodes 0..n-1 (the entries) and
    // n..2n-2 (merged nodes, in creation order, so the root is last).
    // Merged weights never decrease, so taking the lighter head of the
    // weight-sorted leaves and the merged FIFO — a leaf winning a tie —
    // merges in the (weight, creation order) sequence of a min-heap over
    // all nodes: the deterministic tie-break the code lengths rely on.
    std::vector<std::size_t> leaves(n);
    std::iota(leaves.begin(), leaves.end(), std::size_t{0});
    std::stable_sort(leaves.begin(), leaves.end(),
                     [&](std::size_t a, std::size_t b) {
                         return entries[a].weight < entries[b].weight;
                     });
    std::vector<std::uint64_t> weight(2 * n - 1);
    std::vector<std::size_t> parent(2 * n - 1);
    for (std::size_t i = 0; i < n; ++i)
        weight[i] = entries[i].weight;
    std::size_t next_leaf = 0, next_merged = n;
    for (std::size_t node = n; node < 2 * n - 1; ++node) {
        auto take = [&] {
            const bool leaf =
                next_leaf < n &&
                (next_merged == node ||
                 weight[leaves[next_leaf]] <= weight[next_merged]);
            return leaf ? leaves[next_leaf++] : next_merged++;
        };
        const std::size_t a = take();
        const std::size_t b = take();
        weight[node] = weight[a] + weight[b];
        parent[a] = parent[b] = node;
    }

    // Parents come after their children, so one backward pass gives
    // every depth, the root's being 0. An escape-only tree still needs
    // a 1-bit code.
    std::vector<unsigned> lengths(2 * n - 1, n == 1 ? 1 : 0);
    for (std::size_t node = 2 * n - 2; node-- > 0;)
        lengths[node] = lengths[parent[node]] + 1;

    // Canonicalise: sort by (length, symbol) and assign increasing codes.
    std::vector<std::size_t> by_length(n);
    std::iota(by_length.begin(), by_length.end(), std::size_t{0});
    std::sort(by_length.begin(), by_length.end(),
              [&](std::size_t a, std::size_t b) {
                  if (lengths[a] != lengths[b])
                      return lengths[a] < lengths[b];
                  if (entries[a].esc != entries[b].esc)
                      return entries[b].esc;
                  return entries[a].symbol < entries[b].symbol;
              });

    HuffmanCode book;
    if (n > 1) {
        // Quarter-full at most, so linear probes terminate quickly; and
        // eight filter bits per symbol (12.5% false positives).
        std::size_t capacity = 16, filter_bits = 64;
        while (capacity < (n - 1) * 4)
            capacity *= 2;
        while (filter_bits < (n - 1) * 8)
            filter_bits *= 2;
        book.lens_.assign(capacity, {});
        book.wireCodes_.assign(capacity, 0);
        book.lenMask_ = capacity - 1;
        book.filter_.assign(filter_bits / 64, 0);
        book.filterMask_ = filter_bits - 1;
    }
    book.lengthCounts_.assign(lengths[by_length.back()] + 1, 0);
    book.canonical_.reserve(n);
    std::uint64_t next_code = 0;
    unsigned prev_len = 0;
    for (const std::size_t idx : by_length) {
        const unsigned len = lengths[idx];
        latte_assert(len >= 1 && len <= 64, "code length {} out of range",
                     len);
        next_code <<= (len - prev_len);
        prev_len = len;
        std::uint64_t wire = 0;
        for (unsigned i = 0; i < len; ++i)
            wire |= ((next_code >> i) & 1) << (len - 1 - i);
        ++next_code;
        ++book.lengthCounts_[len];
        const std::uint32_t symbol = entries[idx].symbol;
        if (entries[idx].esc) {
            book.escapeIndex_ = book.canonical_.size();
            book.escapeWire_ = wire;
            book.escapeLength_ = len;
        } else {
            const std::uint32_t hash = symbol * 0x9e3779b9u;
            std::size_t i = hash & book.lenMask_;
            while (book.lens_[i].bits != 0)
                i = (i + 1) & book.lenMask_;
            book.lens_[i] = {symbol, len};
            book.wireCodes_[i] = wire;
            const std::size_t bit = hash & book.filterMask_;
            book.filter_[bit / 64] |= std::uint64_t{1} << (bit % 64);
        }
        book.canonical_.push_back(symbol);
    }
    return book;
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
