/**
 * @file
 * Huffman-based statistical compression (SC; Arelakis & Stenström,
 * ISCA 2014), the paper's high-capacity compression mode. A 1024-entry
 * value-frequency table (VFT) with 12-bit saturating counters samples the
 * 32-bit words of inserted lines; a canonical Huffman code book is built
 * from the VFT at period boundaries (Section IV-C2). Lines encoded under
 * a retired code generation can no longer be decoded and must be
 * invalidated by the cache.
 */

#ifndef LATTE_COMPRESS_SC_HH
#define LATTE_COMPRESS_SC_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/config.hh"
#include "compressor.hh"
#include "huffman.hh"

namespace latte
{

/**
 * The value-frequency table feeding SC's code construction: a flat
 * open-addressing table keyed by value, where count 0 marks an empty
 * slot. It starts small and doubles when half full, up to `entries`
 * values; it is never sized from `entries` up front, which is a spec
 * key bounded only by uint32.
 */
class ValueFrequencyTable
{
  public:
    explicit ValueFrequencyTable(std::uint32_t entries = 1024,
                                 std::uint32_t counter_bits = 12);

    /** Record one 32-bit word from an inserted line. */
    void record(std::uint32_t value);

    /** Record all words of a 128 B line. */
    void recordLine(std::span<const std::uint8_t> line);

    /** Clear all entries (start of a new sampling window). */
    void clear();

    std::size_t size() const { return size_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t samples() const { return samples_; }

    /** The (value, count) entries, in no particular order. */
    std::vector<HuffmanCode::Freq> snapshot() const;

  private:
    struct Slot
    {
        std::uint32_t value = 0;
        std::uint32_t count = 0; //!< 0: empty
    };

    /** The slot holding @p value, or the empty one it would take. */
    std::size_t
    find(std::uint32_t value) const
    {
        // Fibonacci hashing on the top bits, then a linear probe.
        std::size_t i = static_cast<std::size_t>(
            (value * 0x9e3779b97f4a7c15ull) >> shift_);
        while (slots_[i].count != 0 && slots_[i].value != value)
            i = (i + 1) & (slots_.size() - 1);
        return i;
    }

    /** Double the slot array and re-place every entry. */
    void grow();

    std::uint32_t capacity_;
    std::uint32_t counterMax_;
    std::vector<Slot> slots_;    //!< a power of two, at most half full
    unsigned shift_;             //!< 64 - log2(slots_.size())
    std::size_t size_ = 0;
    std::size_t last_ = 0;       //!< the slot record() found last
    std::uint64_t misses_ = 0;   //!< inserts rejected because table full
    std::uint64_t samples_ = 0;
};

/** SC compressor/decompressor engine with generational code books. */
class ScCompressor : public Compressor
{
  public:
    explicit ScCompressor(const CompressorTimings &timings = {},
                          const LatteParams &params = {});

    CompressorId id() const override { return CompressorId::Sc; }

    CompressedLine compress(std::span<const std::uint8_t> line) override;
    LineMeta probe(std::span<const std::uint8_t> line) override;
    void decompressInto(const CompressedLine &line,
                        std::span<std::uint8_t> out) const override;

    Cycles compressLatency() const override { return compressLat_; }
    Cycles decompressLatency() const override { return decompressLat_; }

    /** Train the VFT on a line streaming into the cache. */
    void trainLine(std::span<const std::uint8_t> line);

    /**
     * Build a new code book from the VFT, retire the old generation and
     * clear the VFT for the next sampling window.
     * @return the new generation number.
     */
    std::uint32_t rebuildCodes();

    /** Generation of the code book compress() currently uses. */
    std::uint32_t generation() const { return generation_; }

    /** True once a code book exists (before that, lines go raw). */
    bool hasCodes() const { return codes_.valid(); }

    /**
     * True when the sampled value distribution has drifted from the
     * current code book by more than @p limit: when more than that
     * fraction of the VFT's most frequent values (up to kTopValues)
     * have no code, or when no codes exist. The policy layer uses this
     * to skip rebuilds (and the costly invalidation of all SC lines)
     * when the value palette is stable.
     *
     * Which of several values tied at the cut make the top depends on
     * the order std::sort leaves them in. The answer is read from the
     * unsorted counts whenever every choice of the tied values gives
     * it; otherwise the full sort decides.
     */
    bool codeDivergenceAbove(double limit) const;

    /** The code book compress() currently uses. */
    const HuffmanCode &codeBook() const { return codes_; }

    /** Discard the sampling window without touching the code book. */
    void discardVft() { vft_.clear(); }

    const ValueFrequencyTable &vft() const { return vft_; }

  private:
    /** The most frequent values the drift check reads. */
    static constexpr std::size_t kTopValues = 64;

    /**
     * Top values without a code as the full sort picks them from
     * @p freqs, the VFT's entries: in value order, std::sort'ed by
     * descending count.
     */
    std::size_t
    fullSortMissing(std::vector<HuffmanCode::Freq> freqs) const;

    ValueFrequencyTable vft_;
    HuffmanCode codes_;
    std::uint32_t generation_ = 0;
    Cycles compressLat_;
    Cycles decompressLat_;
};

} // namespace latte

#endif // LATTE_COMPRESS_SC_HH
