/**
 * @file
 * The level-generic core of a compressed cache: an expanded tag array
 * (tagFactor x the baseline tags), sub-block allocation of compressed
 * payloads, replacement state, and the per-algorithm decompression
 * queues of Eq. (3). The L1 (CompressedCache) and the L2 (L2Cache with
 * --l2-compress) both instantiate one of these with their own
 * CacheLevelConfig; everything level-specific — counters, traces, MSHRs,
 * the policy hookup — stays with the owner.
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
    struct TagEntry
    {
        bool valid = false;
        Addr tag = 0;
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
    CompressionDomain(const CacheLevelConfig &level,
                      GpuConfig::ReplPolicy repl, bool capacity_benefit,
                      StatGroup *queue_parent);

    // --- Geometry ---
    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t tagsPerSet() const { return tagsPerSet_; }
    std::uint32_t subBlocksPerSet() const { return subBlocksPerSet_; }
    std::uint32_t setIndexOf(Addr addr) const;
    Addr tagOf(Addr line_addr) const;

    // --- Lookup / replacement ---
    TagEntry *setBase(std::uint32_t set_index);
    const TagEntry *setBase(std::uint32_t set_index) const;
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
     * @p set_index, then return the slot to fill. @p on_evict observes
     * every released victim (its tag/mode fields stay readable) so the
     * owner can count and trace evictions.
     */
    template <typename EvictObserver>
    TagEntry &
    allocateSlot(std::uint32_t set_index, std::uint8_t need,
                 EvictObserver &&on_evict)
    {
        TagEntry *ways = setBase(set_index);
        TagEntry *slot = nullptr;
        for (std::uint32_t w = 0; w < tagsPerSet_; ++w) {
            if (!ways[w].valid) {
                slot = &ways[w];
                break;
            }
        }
        while (!slot ||
               setUsedSubBlocks_[set_index] + need > subBlocksPerSet_) {
            TagEntry *victim = pickVictim(set_index);
            releaseLine(*victim, set_index);
            on_evict(*victim);
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

    const CacheLevelConfig &level_;
    GpuConfig::ReplPolicy repl_;
    bool capacityBenefit_;

    std::uint32_t numSets_;
    std::uint32_t tagsPerSet_;
    std::uint32_t subBlocksPerSet_;
    std::vector<TagEntry> tags_;
    /** Per tag slot: its tag while valid, else kNoKey (findLine's keys). */
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
