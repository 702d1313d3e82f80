#include "compression_domain.hh"

#include <algorithm>

#include "common/bit_utils.hh"

namespace latte
{

CompressionDomain::CompressionDomain(CacheLevelConfig level,
                                     GpuConfig::ReplPolicy repl,
                                     bool capacity_benefit,
                                     StatGroup *queue_parent)
    : level_(level), repl_(repl), capacityBenefit_(capacity_benefit),
      numSets_(level.numSets()),
      tagsPerSet_(level.assoc * level.tagFactor),
      subBlocksPerSet_(level.assoc * (level.lineBytes / level.subBlockBytes)),
      tags_(static_cast<std::size_t>(numSets_) * tagsPerSet_),
      keys_(tags_.size(), kNoKey),
      setUsedSubBlocks_(numSets_, 0),
      bdiQueue_("decomp_bdi", queue_parent),
      scQueue_("decomp_sc", queue_parent),
      bpcQueue_("decomp_bpc", queue_parent),
      fpcQueue_("decomp_fpc", queue_parent),
      cpackQueue_("decomp_cpack", queue_parent)
{
    latte_assert(numSets_ > 0);
    latte_assert(level.lineBytes == kLineBytes);
}

std::size_t
CompressionDomain::findSlot(std::uint32_t set_index, Addr tag) const
{
    const std::size_t base = slotIndex(set_index);
    for (std::size_t i = base; i < base + tagsPerSet_; ++i) {
        if (keys_[i] == tag)
            return i;
    }
    return kNoSlot;
}

std::size_t
CompressionDomain::freeSlot(std::uint32_t set_index, Addr tag) const
{
    const std::size_t base = slotIndex(set_index);
    std::size_t free = kNoSlot;
    for (std::size_t i = base; i < base + tagsPerSet_; ++i) {
        latte_assert(keys_[i] != tag, "line {} filled twice",
                     (tag * numSets_ + set_index) * level_.lineBytes);
        if (keys_[i] == kNoKey && free == kNoSlot)
            free = i;
    }
    return free;
}

std::optional<CompressionDomain::Stored>
CompressionDomain::hit(Addr line_addr)
{
    const std::size_t slot =
        findSlot(setIndexOf(line_addr), tagOf(line_addr));
    if (slot == kNoSlot)
        return std::nullopt;
    TagEntry &entry = tags_[slot];
    switch (repl_) {
      case GpuConfig::ReplPolicy::LRU:
        entry.lruStamp = ++lruClock_;
        break;
      case GpuConfig::ReplPolicy::FIFO:
        break; // insertion order only
      case GpuConfig::ReplPolicy::SRRIP:
        entry.rrpv = 0;
        break;
    }
    return Stored{entry.mode, storedEncoded(entry.mode, entry.encoding)};
}

std::optional<CompressorId>
CompressionDomain::drop(Addr line_addr)
{
    const std::uint32_t set = setIndexOf(line_addr);
    const std::size_t slot = findSlot(set, tagOf(line_addr));
    if (slot == kNoSlot)
        return std::nullopt;
    release(slot, set);
    return tags_[slot].mode;
}

std::size_t
CompressionDomain::pickVictim(std::uint32_t set_index)
{
    const std::size_t base = slotIndex(set_index);
    const std::size_t end = base + tagsPerSet_;

    if (repl_ == GpuConfig::ReplPolicy::SRRIP) {
        // Find an RRPV-3 line, aging the set until one exists.
        for (;;) {
            for (std::size_t i = base; i < end; ++i) {
                if (keys_[i] != kNoKey && tags_[i].rrpv >= 3)
                    return i;
            }
            for (std::size_t i = base; i < end; ++i) {
                if (keys_[i] != kNoKey && tags_[i].rrpv < 3)
                    ++tags_[i].rrpv;
            }
        }
    }

    // LRU and FIFO: smallest stamp (touch order vs fill order).
    std::size_t victim = kNoSlot;
    for (std::size_t i = base; i < end; ++i) {
        if (keys_[i] != kNoKey &&
            (victim == kNoSlot ||
             tags_[i].lruStamp < tags_[victim].lruStamp)) {
            victim = i;
        }
    }
    latte_assert(victim != kNoSlot, "no victim but set is full");
    return victim;
}

std::uint8_t
CompressionDomain::subBlocksFor(const LineMeta &meta) const
{
    const std::uint32_t full = level_.lineBytes / level_.subBlockBytes;
    if (!capacityBenefit_ || !meta.encoded())
        return static_cast<std::uint8_t>(full);
    const auto blocks = static_cast<std::uint32_t>(
        divCeil(std::max<std::uint32_t>(meta.sizeBytes(), 1),
                level_.subBlockBytes));
    return static_cast<std::uint8_t>(std::min(blocks, full));
}

void
CompressionDomain::release(std::size_t slot, std::uint32_t set_index)
{
    latte_assert(keys_[slot] != kNoKey);
    latte_assert(setUsedSubBlocks_[set_index] >= tags_[slot].subBlocks);
    setUsedSubBlocks_[set_index] -= tags_[slot].subBlocks;
    keys_[slot] = kNoKey;
}

void
CompressionDomain::commit(std::size_t slot, std::uint32_t set_index,
                          Addr tag, const LineMeta &meta,
                          std::uint8_t need)
{
    keys_[slot] = tag;
    TagEntry &entry = tags_[slot];
    entry.lruStamp = ++lruClock_;
    // SRRIP inserts with a "long" (but not distant) prediction.
    entry.rrpv = 2;
    entry.mode = meta.algo;
    entry.encoding = meta.encoding;
    entry.generation = meta.generation;
    entry.subBlocks = need;
    setUsedSubBlocks_[set_index] += need;
}

std::uint64_t
CompressionDomain::usedSubBlocks() const
{
    std::uint64_t used = 0;
    for (std::uint32_t set = 0; set < numSets_; ++set)
        used += usedSubBlocksInSet(set);
    return used;
}

std::uint32_t
CompressionDomain::usedSubBlocksInSet(std::uint32_t set_index) const
{
    std::uint32_t used = 0;
    for (std::size_t i = slotIndex(set_index);
         i < slotIndex(set_index + 1); ++i) {
        if (keys_[i] != kNoKey)
            used += tags_[i].subBlocks;
    }
    return used;
}

std::uint64_t
CompressionDomain::validLines() const
{
    return static_cast<std::uint64_t>(
        keys_.size() - std::count(keys_.begin(), keys_.end(), kNoKey));
}

DecompressionQueue &
CompressionDomain::queueFor(CompressorId mode)
{
    switch (mode) {
      case CompressorId::Bdi: return bdiQueue_;
      case CompressorId::Sc: return scQueue_;
      case CompressorId::Bpc: return bpcQueue_;
      case CompressorId::Fpc: return fpcQueue_;
      case CompressorId::CpackZ: return cpackQueue_;
      case CompressorId::None: break;
    }
    latte_panic("no decompression queue for {}", compressorName(mode));
}

const DecompressionQueue &
CompressionDomain::queueFor(CompressorId mode) const
{
    return const_cast<CompressionDomain *>(this)->queueFor(mode);
}

std::size_t
CompressionDomain::decompDepth(Cycles now) const
{
    return bdiQueue_.depth(now) + scQueue_.depth(now) +
           bpcQueue_.depth(now) + fpcQueue_.depth(now) +
           cpackQueue_.depth(now);
}

std::uint64_t
CompressionDomain::invalidateScGeneration(std::uint32_t current_generation)
{
    std::uint64_t dropped = 0;
    for (std::uint32_t set = 0; set < numSets_; ++set) {
        for (std::size_t i = slotIndex(set); i < slotIndex(set + 1); ++i) {
            if (keys_[i] != kNoKey && tags_[i].mode == CompressorId::Sc &&
                tags_[i].generation != current_generation) {
                release(i, set);
                ++dropped;
            }
        }
    }
    return dropped;
}

void
CompressionDomain::invalidateSampleMismatch(
    const std::function<bool(std::uint32_t)> &sampled, CompressorId keep)
{
    for (std::uint32_t set = 0; set < numSets_; ++set) {
        if (!sampled(set))
            continue;
        for (std::size_t i = slotIndex(set); i < slotIndex(set + 1); ++i) {
            if (keys_[i] != kNoKey && tags_[i].mode != CompressorId::None &&
                tags_[i].mode != keep) {
                release(i, set);
            }
        }
    }
}

} // namespace latte
