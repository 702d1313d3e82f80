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
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace latte
{

/**
 * MSHR file tracking outstanding line fills: a flat list in allocation
 * order (`l1.mshrEntries` long at most) that is also the L1's fill queue.
 */
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
        return find(line_addr) != nullptr;
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
        entries_.push_back({line_addr, fill_cycle});
        nextFill_ = std::min(nextFill_, fill_cycle);
        ++allocations;
    }

    /** Merge a secondary miss; returns the pending fill cycle. */
    Cycles
    merge(Addr line_addr)
    {
        ++merges;
        return fillCycle(line_addr);
    }

    /** Fill completion time of an outstanding miss. */
    Cycles
    fillCycle(Addr line_addr) const
    {
        const Entry *entry = find(line_addr);
        latte_assert(entry);
        return entry->fillCycle;
    }

    /**
     * Release the entries whose fill has arrived by @p now, handing each
     * to @p on_fill(line_addr, fill_cycle) in allocation order. The
     * survivors are compacted in the same pass, so @p on_fill must not
     * read this file.
     */
    template <typename OnFill>
    void
    retire(Cycles now, OnFill &&on_fill)
    {
        if (now < nextFill_)
            return;
        nextFill_ = kNoCycle;
        std::size_t kept = 0;
        for (const Entry &entry : entries_) {
            if (entry.fillCycle <= now) {
                on_fill(entry.lineAddr, entry.fillCycle);
            } else {
                nextFill_ = std::min(nextFill_, entry.fillCycle);
                entries_[kept++] = entry;
            }
        }
        entries_.resize(kept);
    }

    /** Release the entries whose fill has arrived by @p now. */
    void
    retire(Cycles now)
    {
        retire(now, [](Addr, Cycles) {});
    }

    /** Earliest outstanding fill completion; kNoCycle when empty. */
    Cycles nextFillCycle() const { return nextFill_; }

    std::size_t inUse() const { return entries_.size(); }

    Counter allocations;
    Counter merges;
    Counter stallsFull;

  private:
    struct Entry
    {
        Addr lineAddr;
        Cycles fillCycle;
    };

    const Entry *
    find(Addr line_addr) const
    {
        for (const Entry &entry : entries_) {
            if (entry.lineAddr == line_addr)
                return &entry;
        }
        return nullptr;
    }

    std::uint32_t capacity_;
    std::vector<Entry> entries_;
    Cycles nextFill_ = kNoCycle;
};

} // namespace latte

#endif // LATTE_MEM_MSHR_HH
