/**
 * @file
 * Canonical Huffman coding over 32-bit symbols, used by the statistical
 * compressor (SC). Supports an escape symbol for values outside the
 * code table.
 */

#ifndef LATTE_COMPRESS_HUFFMAN_HH
#define LATTE_COMPRESS_HUFFMAN_HH

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/bit_utils.hh"

namespace latte
{

/** An immutable Huffman code book with escape support. */
class HuffmanCode
{
  public:
    /** (symbol value, weight) training pair. */
    using Freq = std::pair<std::uint32_t, std::uint64_t>;

    HuffmanCode() = default;

    /**
     * Build a code book over @p freqs (distinct symbols, in any order,
     * weights below 2^32) plus an escape symbol of weight
     * @p escape_weight (>= 1). Zero-weight symbols are dropped.
     */
    static HuffmanCode
    build(const std::vector<Freq> &freqs, std::uint64_t escape_weight)
    {
        HuffmanCode book;
        book.rebuild(freqs, escape_weight);
        return book;
    }

    /** build() into this book, reusing its tables. */
    void rebuild(std::span<const Freq> freqs, std::uint64_t escape_weight);

    /** True once build() populated the book. */
    bool valid() const { return escapeLength_ != 0; }

    /** Number of coded symbols, not counting the escape. */
    std::size_t
    numSymbols() const
    {
        return valid() ? canonical_.size() - 1 : 0;
    }

    /**
     * Emit the code for @p value if it is in the book; otherwise emit the
     * escape prefix followed by the raw 32-bit value. @p Sink is
     * BitWriter (materialise) or BitCounter (size-only probe).
     * @return true if the value was in the book.
     */
    template <typename Sink>
    bool
    encode(std::uint32_t value, Sink &sink) const
    {
        latte_assert(valid(), "encode on an empty code book");
        // Codes are kept bit-reversed so one word-at-a-time write emits
        // them MSB-first on the LSB-first wire.
        const std::size_t slot = find(value);
        if (slot != kNoSlot) {
            sink.write(wireCodes_[slot], lens_[slot].bits);
            return true;
        }
        sink.write(escapeWire_, escapeLength_);
        sink.write(value, 32);
        return false;
    }

    /** Bits the encoder would emit for @p value. */
    unsigned
    encodedBits(std::uint32_t value) const
    {
        const std::size_t slot = find(value);
        return slot != kNoSlot ? lens_[slot].bits : escapeLength_ + 32;
    }

    /** True if @p value has a dedicated code (no escape needed). */
    bool
    hasCode(std::uint32_t value) const
    {
        return find(value) != kNoSlot;
    }

    /** Decode one symbol; reads the raw value itself after an escape. */
    std::uint32_t decode(BitReader &br) const;

  private:
    static constexpr std::size_t kNoSlot = ~std::size_t{0};

    /**
     * One slot of the open-addressing symbol table: a coded symbol and
     * its code length. bits == 0 marks an empty slot (no code is
     * shorter than one bit).
     */
    struct LenSlot
    {
        std::uint32_t symbol = 0;
        std::uint32_t bits = 0;
    };

    /**
     * The table slot of @p value, or kNoSlot: escape it. The membership
     * filter answers most misses — the common case on noisy lines —
     * with one load from a ~1 KiB bitmap instead of a probe chain. The
     * home slot is loaded before the filter is tested: the two loads
     * are independent, so a hit pays one load latency instead of two.
     */
    std::size_t
    find(std::uint32_t value) const
    {
        if (lens_.empty())
            return kNoSlot;
        // Fibonacci mix spreads clustered values (small ints, pointers).
        const std::uint32_t hash = value * 0x9e3779b9u;
        std::size_t i = hash & lenMask_;
        LenSlot slot = lens_[i];
        const std::size_t bit = hash & filterMask_;
        if (!((filter_[bit / 64] >> (bit % 64)) & 1))
            return kNoSlot;
        while (slot.bits != 0) {
            if (slot.symbol == value)
                return i;
            i = (i + 1) & lenMask_;
            slot = lens_[i];
        }
        return kNoSlot;
    }

    std::vector<LenSlot> lens_;            //!< the symbol table
    std::vector<std::uint64_t> wireCodes_; //!< lens_[i]'s code, reversed
    std::size_t lenMask_ = 0;
    std::vector<std::uint64_t> filter_;    //!< membership bitmap
    std::size_t filterMask_ = 0;
    std::uint64_t escapeWire_ = 0;         //!< escape code, reversed
    unsigned escapeLength_ = 0;            //!< 0 until build()

    // Canonical decoding state: every symbol in code order (the escape
    // at escapeIndex_) and the number of codes of each length.
    std::vector<std::uint32_t> canonical_;
    std::vector<std::uint32_t> lengthCounts_;
    std::size_t escapeIndex_ = 0;
};

} // namespace latte

#endif // LATTE_COMPRESS_HUFFMAN_HH
