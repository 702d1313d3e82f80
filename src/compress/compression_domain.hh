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
#include <optional>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "compressor.hh"
#include "decomp_queue.hh"

namespace latte
{

/**
 * Tag array + sub-block accounting + decompression queues of one level.
 * Owners look lines up, drop them and fill them by line address; the
 * slots behind those calls are the domain's own.
 */
class CompressionDomain
{
  public:
    /** How a resident line is stored, as hit() reports it. */
    struct Stored
    {
        CompressorId mode = CompressorId::None;
        /** Held in compressed form: a hit decompresses it. */
        bool encoded = false;
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
    std::uint32_t
    setIndexOf(Addr addr) const
    {
        // Modulo rather than mask: set counts are not always powers of
        // two (96 sets in the 48 KB L1 of Section V-E, 768 in the L2).
        // The line size is the constant the constructor asserts, so
        // only the set count costs a division.
        return static_cast<std::uint32_t>((addr / kLineBytes) % numSets_);
    }

    // --- Line-level access ---
    /**
     * If @p line_addr is resident, update its replacement state and
     * report how it is stored; nullopt on a miss.
     */
    std::optional<Stored> hit(Addr line_addr);

    /**
     * Release @p line_addr (write-avoid) and return the mode it was
     * stored with; nullopt if it was not resident.
     */
    std::optional<CompressorId> drop(Addr line_addr);

    /**
     * Store @p line_addr, which must not be resident, at @p meta's size:
     * evict until a tag and its sub-blocks are free in its set, handing
     * @p on_evict(victim_addr, mode) each victim's byte address and the
     * mode it was stored with, then commit the line.
     * @return the sub-blocks the line occupies.
     */
    template <typename EvictObserver>
    std::uint8_t
    fill(Addr line_addr, const LineMeta &meta, EvictObserver &&on_evict)
    {
        const std::uint32_t set = setIndexOf(line_addr);
        const Addr tag = tagOf(line_addr);
        const std::uint8_t need = subBlocksFor(meta);
        std::size_t slot = freeSlot(set, tag);
        while (slot == kNoSlot ||
               setUsedSubBlocks_[set] + need > subBlocksPerSet_) {
            const std::size_t victim = pickVictim(set);
            const Addr victim_tag = keys_[victim];
            release(victim, set);
            on_evict((victim_tag * numSets_ + set) * kLineBytes,
                     tags_[victim].mode);
            if (slot == kNoSlot)
                slot = victim;
        }
        commit(slot, set, tag, meta, need);
        return need;
    }

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

  private:
    /** A tag slot's line state; keys_ records which line it holds. */
    struct TagEntry
    {
        std::uint64_t lruStamp = 0;          //!< LRU: touch, FIFO: fill
        std::uint32_t generation = 0;        //!< SC code generation
        std::uint8_t rrpv = 3;               //!< SRRIP re-reference bits
        CompressorId mode = CompressorId::None;
        std::uint8_t encoding = 0;
        std::uint8_t subBlocks = 0;
    };
    static_assert(sizeof(TagEntry) == 16);

    /** A free slot's key; tags are line numbers, far below it. */
    static constexpr Addr kNoKey = ~Addr{0};
    /** "No such slot" from the slot searches. */
    static constexpr std::size_t kNoSlot = ~std::size_t{0};

    Addr
    tagOf(Addr line_addr) const
    {
        return line_addr / kLineBytes / numSets_;
    }

    /** Index of @p set_index's first slot in tags_ and keys_. */
    std::size_t
    slotIndex(std::uint32_t set_index) const
    {
        return static_cast<std::size_t>(set_index) * tagsPerSet_;
    }

    /** The slot holding @p tag in @p set_index, or kNoSlot. */
    std::size_t findSlot(std::uint32_t set_index, Addr tag) const;
    /** A free slot in @p set_index, or kNoSlot; @p tag must be absent. */
    std::size_t freeSlot(std::uint32_t set_index, Addr tag) const;
    std::size_t pickVictim(std::uint32_t set_index);
    /** Sub-blocks a line with @p meta occupies under this geometry. */
    std::uint8_t subBlocksFor(const LineMeta &meta) const;
    /** Invalidate @p slot and release its sub-blocks in @p set_index. */
    void release(std::size_t slot, std::uint32_t set_index);
    void commit(std::size_t slot, std::uint32_t set_index, Addr tag,
                const LineMeta &meta, std::uint8_t need);

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
