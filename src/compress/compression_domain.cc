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

std::uint32_t
CompressionDomain::setIndexOf(Addr addr) const
{
    // Modulo rather than mask: set counts are not always powers of two
    // (96 sets in the 48 KB L1 of Section V-E, 768 sets in the L2).
    return static_cast<std::uint32_t>(
        (addr / level_.lineBytes) % numSets_);
}

Addr
CompressionDomain::tagOf(Addr line_addr) const
{
    return line_addr / level_.lineBytes / numSets_;
}

CompressionDomain::TagEntry *
CompressionDomain::findLine(Addr line_addr)
{
    const std::size_t base = slotIndex(setIndexOf(line_addr));
    const Addr tag = tagOf(line_addr);
    for (std::size_t i = base; i < base + tagsPerSet_; ++i) {
        if (keys_[i] == tag)
            return &tags_[i];
    }
    return nullptr;
}

void
CompressionDomain::touchOnHit(TagEntry &entry)
{
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
}

void
CompressionDomain::touchOnFill(TagEntry &entry)
{
    entry.lruStamp = ++lruClock_;
    // SRRIP inserts with a "long" (but not distant) prediction.
    entry.rrpv = 2;
}

CompressionDomain::TagEntry *
CompressionDomain::pickVictim(std::uint32_t set_index)
{
    const std::size_t base = slotIndex(set_index);
    const std::size_t end = base + tagsPerSet_;

    if (repl_ == GpuConfig::ReplPolicy::SRRIP) {
        // Find an RRPV-3 line, aging the set until one exists.
        for (;;) {
            for (std::size_t i = base; i < end; ++i) {
                if (keys_[i] != kNoKey && tags_[i].rrpv >= 3)
                    return &tags_[i];
            }
            for (std::size_t i = base; i < end; ++i) {
                if (keys_[i] != kNoKey && tags_[i].rrpv < 3)
                    ++tags_[i].rrpv;
            }
        }
    }

    // LRU and FIFO: smallest stamp (touch order vs fill order).
    TagEntry *victim = nullptr;
    for (std::size_t i = base; i < end; ++i) {
        if (keys_[i] != kNoKey &&
            (!victim || tags_[i].lruStamp < victim->lruStamp)) {
            victim = &tags_[i];
        }
    }
    latte_assert(victim, "no victim but set is full");
    return victim;
}

std::uint8_t
CompressionDomain::subBlocksFor(const LineMeta &meta) const
{
    const std::uint32_t full = level_.lineBytes / level_.subBlockBytes;
    if (!capacityBenefit_ || !meta.compressed() ||
        meta.encoding == kRawEncoding) {
        return static_cast<std::uint8_t>(full);
    }
    const auto blocks = static_cast<std::uint32_t>(
        divCeil(std::max<std::uint32_t>(meta.sizeBytes(), 1),
                level_.subBlockBytes));
    return static_cast<std::uint8_t>(std::min(blocks, full));
}

void
CompressionDomain::releaseLine(TagEntry &entry, std::uint32_t set_index)
{
    Addr &key = keys_[&entry - tags_.data()];
    latte_assert(key != kNoKey);
    latte_assert(setUsedSubBlocks_[set_index] >= entry.subBlocks);
    setUsedSubBlocks_[set_index] -= entry.subBlocks;
    key = kNoKey;
    entry.payload.clear();
}

void
CompressionDomain::commitFill(TagEntry &slot, Addr tag,
                              const LineMeta &meta, std::uint8_t need,
                              std::uint32_t set_index)
{
    keys_[&slot - tags_.data()] = tag;
    touchOnFill(slot);
    slot.mode = meta.algo;
    slot.encoding = meta.encoding;
    slot.sizeBits = meta.sizeBits;
    slot.generation = meta.generation;
    slot.subBlocks = need;
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
            TagEntry &entry = tags_[i];
            if (keys_[i] != kNoKey && entry.mode == CompressorId::Sc &&
                entry.generation != current_generation) {
                releaseLine(entry, set);
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
            TagEntry &entry = tags_[i];
            if (keys_[i] != kNoKey && entry.mode != CompressorId::None &&
                entry.mode != keep) {
                releaseLine(entry, set);
            }
        }
    }
}

void
CompressionDomain::invalidateAll()
{
    for (auto &entry : tags_)
        entry.payload.clear();
    std::fill(keys_.begin(), keys_.end(), kNoKey);
    std::fill(setUsedSubBlocks_.begin(), setUsedSubBlocks_.end(), 0);
    bdiQueue_.clear();
    scQueue_.clear();
    bpcQueue_.clear();
    fpcQueue_.clear();
    cpackQueue_.clear();
}

} // namespace latte
