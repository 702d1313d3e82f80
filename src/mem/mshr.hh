/**
 * @file
 * Miss Status Holding Registers for the L1 data cache. Outstanding misses
 * to the same line are merged; the file's capacity bounds the L1's memory
 * level parallelism, stalling the load/store unit when exhausted.
 */

#ifndef LATTE_MEM_MSHR_HH
#define LATTE_MEM_MSHR_HH

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace latte
{

/** MSHR file tracking outstanding line fills. */
class MshrFile : public StatGroup
{
  public:
    MshrFile(std::uint32_t entries, StatGroup *parent)
        : StatGroup("mshr", parent),
          allocations(this, "allocations", "primary misses allocated"),
          merges(this, "merges", "secondary misses merged"),
          stallsFull(this, "stalls_full", "allocations refused: file full"),
          capacity_(entries)
    {}

    /** True if a miss to @p line_addr is already outstanding. */
    bool
    outstanding(Addr line_addr) const
    {
        return entries_.contains(line_addr);
    }

    /** True if a new primary miss can be accepted. */
    bool hasFree() const { return entries_.size() < capacity_; }

    /**
     * Track a primary miss whose fill completes at @p fill_cycle.
     * @pre hasFree() && !outstanding(line_addr)
     */
    void
    allocate(Addr line_addr, Cycles fill_cycle)
    {
        latte_assert(hasFree(), "MSHR overflow");
        latte_assert(!outstanding(line_addr));
        entries_.emplace(line_addr, fill_cycle);
        ++allocations;
    }

    /** Merge a secondary miss; returns the pending fill cycle. */
    Cycles
    merge(Addr line_addr)
    {
        const auto it = entries_.find(line_addr);
        latte_assert(it != entries_.end());
        ++merges;
        return it->second;
    }

    /** Fill completion time of an outstanding miss. */
    Cycles
    fillCycle(Addr line_addr) const
    {
        const auto it = entries_.find(line_addr);
        latte_assert(it != entries_.end());
        return it->second;
    }

    /** Release entries whose fill has arrived by @p now. */
    void
    retire(Cycles now)
    {
        std::erase_if(entries_, [now](const auto &entry) {
            return entry.second <= now;
        });
    }

    /** Earliest outstanding fill completion; kNoCycle when empty. */
    Cycles
    nextFillCycle() const
    {
        Cycles next = kNoCycle;
        for (const auto &[addr, fill] : entries_)
            next = std::min(next, fill);
        return next;
    }

    /** Drop all state (between runs). */
    void clear() { entries_.clear(); }

    std::size_t inUse() const { return entries_.size(); }

    Counter allocations;
    Counter merges;
    Counter stallsFull;

  private:
    std::uint32_t capacity_;
    std::unordered_map<Addr, Cycles> entries_;
};

} // namespace latte

#endif // LATTE_MEM_MSHR_HH
