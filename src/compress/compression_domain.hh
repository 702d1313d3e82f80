/**
 * @file
 * The level-generic core of a compressed cache: an expanded tag array
 * (tagFactor x the baseline tags), sub-block allocation of compressed
 * payloads, replacement state, and the per-algorithm decompression
 * queues of Eq. (3). The L1 (CompressedCache) and the L2 (L2Cache) both
 * instantiate one of these with their own CacheLevelConfig; an
 * uncompressed level is a domain whose lines are all stored raw, one tag
 * per way (tagFactor 1). Everything level-specific — counters, traces,
 * MSHRs, the policy hookup — stays with the owner.
 */

#ifndef LATTE_COMPRESS_COMPRESSION_DOMAIN_HH
#define LATTE_COMPRESS_COMPRESSION_DOMAIN_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "compressor.hh"
#include "decomp_queue.hh"

namespace latte
{

/** Tag array + sub-block accounting + decompression queues of one level. */
class CompressionDomain
{
  public:
    /** A tag slot's line state; keys_ records which line it holds. */
    struct TagEntry
    {
        std::uint64_t lruStamp = 0;          //!< LRU: touch, FIFO: fill
        std::uint8_t rrpv = 3;               //!< SRRIP re-reference bits
        CompressorId mode = CompressorId::None;
        std::uint8_t encoding = 0;
        std::uint32_t sizeBits = 0;
        std::uint32_t generation = 0;
        std::uint8_t subBlocks = 0;
        std::vector<std::uint8_t> payload;   //!< verifyRoundTrip only
    };

    /**
     * @p queue_parent owns the decompression-queue stats ("decomp_bdi"
     * etc. appear directly under it, exactly where the pre-extraction
     * CompressedCache registered them). @p capacity_benefit false makes
     * every compressed line occupy a full line's worth of sub-blocks
     * (the Figure 4 study).
     */
    CompressionDomain(CacheLevelConfig level,
                      GpuConfig::ReplPolicy repl, bool capacity_benefit,
                      StatGroup *queue_parent);

    // --- Geometry ---
    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t tagsPerSet() const { return tagsPerSet_; }
    std::uint32_t subBlocksPerSet() const { return subBlocksPerSet_; }
    std::uint32_t setIndexOf(Addr addr) const;
    Addr tagOf(Addr line_addr) const;

    // --- Lookup / replacement ---
    TagEntry *findLine(Addr line_addr);
    TagEntry *pickVictim(std::uint32_t set_index);
    void touchOnHit(TagEntry &entry);
    void touchOnFill(TagEntry &entry);

    /** Sub-blocks a line with @p meta occupies under this geometry. */
    std::uint8_t subBlocksFor(const LineMeta &meta) const;

    /** Invalidate @p entry and release its sub-blocks in @p set_index. */
    void releaseLine(TagEntry &entry, std::uint32_t set_index);

    /**
     * Evict until a tag and @p need sub-blocks are free in
     * @p set_index, then return the slot to fill. @p on_evict(line_addr,
     * entry) observes every released victim — its byte address, as the
     * fill that placed it had it, and its entry, whose mode stays
     * readable — so the owner can count and trace evictions.
     */
    template <typename EvictObserver>
    TagEntry &
    allocateSlot(std::uint32_t set_index, std::uint8_t need,
                 EvictObserver &&on_evict)
    {
        const std::size_t base = slotIndex(set_index);
        TagEntry *slot = nullptr;
        for (std::size_t i = base; i < base + tagsPerSet_; ++i) {
            if (keys_[i] == kNoKey) {
                slot = &tags_[i];
                break;
            }
        }
        while (!slot ||
               setUsedSubBlocks_[set_index] + need > subBlocksPerSet_) {
            TagEntry *victim = pickVictim(set_index);
            const Addr tag = keys_[victim - tags_.data()];
            releaseLine(*victim, set_index);
            on_evict((tag * numSets_ + set_index) * level_.lineBytes,
                     *victim);
            if (!slot)
                slot = victim;
        }
        return *slot;
    }

    /** Fill @p slot with @p meta's line (payload stays owner business). */
    void commitFill(TagEntry &slot, Addr tag, const LineMeta &meta,
                    std::uint8_t need, std::uint32_t set_index);

    // --- Occupancy introspection ---
    std::uint64_t usedSubBlocks() const;
    std::uint32_t usedSubBlocksInSet(std::uint32_t set_index) const;
    std::uint32_t
    usedSubBlocksCounter(std::uint32_t set_index) const
    {
        return setUsedSubBlocks_[set_index];
    }
    std::uint64_t validLines() const;
    /** Sum of the *uncompressed* size of all valid lines. */
    std::uint64_t
    effectiveCapacityBytes() const
    {
        return validLines() * level_.lineBytes;
    }

    /** Decompression queue for @p mode (never None). */
    DecompressionQueue &queueFor(CompressorId mode);
    const DecompressionQueue &queueFor(CompressorId mode) const;
    /** Entries draining at @p now, summed over every queue. */
    std::size_t decompDepth(Cycles now) const;

    /**
     * Invalidate SC lines not encoded with @p current_generation.
     * @return the number of lines dropped.
     */
    std::uint64_t invalidateScGeneration(std::uint32_t current_generation);

    /**
     * Drop compressed lines left in the sampling sets (those @p sampled
     * accepts) that are neither uncompressed nor in @p keep mode.
     */
    void invalidateSampleMismatch(
        const std::function<bool(std::uint32_t)> &sampled,
        CompressorId keep);

    /** Drop every line and drain every queue (between kernels / runs). */
    void invalidateAll();

  private:
    /** A free slot's key; tags are line numbers, far below it. */
    static constexpr Addr kNoKey = ~Addr{0};

    /** Index of @p set_index's first slot in tags_ and keys_. */
    std::size_t
    slotIndex(std::uint32_t set_index) const
    {
        return static_cast<std::size_t>(set_index) * tagsPerSet_;
    }

    const CacheLevelConfig level_;
    GpuConfig::ReplPolicy repl_;
    bool capacityBenefit_;

    std::uint32_t numSets_;
    std::uint32_t tagsPerSet_;
    std::uint32_t subBlocksPerSet_;
    std::vector<TagEntry> tags_;
    /** Per slot: its line's tag, else kNoKey; the only occupancy record. */
    std::vector<Addr> keys_;
    /** Per-set allocated sub-blocks, maintained on insert/release. */
    std::vector<std::uint32_t> setUsedSubBlocks_;
    std::uint64_t lruClock_ = 0;

    DecompressionQueue bdiQueue_;
    DecompressionQueue scQueue_;
    DecompressionQueue bpcQueue_;
    DecompressionQueue fpcQueue_;
    DecompressionQueue cpackQueue_;
};

} // namespace latte

#endif // LATTE_COMPRESS_COMPRESSION_DOMAIN_HH
