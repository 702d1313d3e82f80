/**
 * @file
 * Load/store unit: the SM's single L1 port. Line accesses queue here and
 * issue one per cycle; rejected accesses (MSHRs full) retry. A warp's
 * load completes when its last access has a known fill time; the LSU
 * then hands the warp's wake cycle back to the SM for its scheduler.
 */

#ifndef LATTE_SIM_LSU_HH
#define LATTE_SIM_LSU_HH

#include <algorithm>
#include <deque>
#include <optional>
#include <span>

#include "cache/compressed_cache.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "warp.hh"

namespace latte
{

/** A warp whose load completed: it can issue again from `readyAt`. */
struct LoadWake
{
    std::uint32_t slot;
    Cycles readyAt;
};

/** Per-SM memory pipeline front end. */
class LoadStoreUnit : public StatGroup
{
  public:
    LoadStoreUnit(StatGroup *parent)
        : StatGroup("lsu", parent),
          accessesIssued(this, "accesses", "line accesses sent to the L1"),
          retries(this, "retries", "accesses replayed after rejection")
    {}

    /** Queue the line accesses of a load; warp waits for all. */
    void
    enqueueLoad(std::uint32_t warp_slot, std::span<const Addr> lines)
    {
        for (const Addr line : lines)
            queue_.push_back({line, false, static_cast<int>(warp_slot)});
    }

    /** Queue the line accesses of a store (fire-and-forget). */
    void
    enqueueStore(std::span<const Addr> lines)
    {
        for (const Addr line : lines)
            queue_.push_back({line, true, -1});
    }

    /**
     * Issue at most one access to the L1.
     * @return the warp this access finished a load for, if any
     */
    std::optional<LoadWake>
    tick(Cycles now, CompressedCache &cache, std::span<Warp> warps)
    {
        if (queue_.empty() || now < retryAt_)
            return std::nullopt;
        const Request req = queue_.front();
        const L1AccessResult res =
            cache.access(now, req.lineAddr, req.store);
        if (res.rejected) {
            // MSHRs are full: nothing can enter the L1 until a fill
            // returns, so sleep until the earliest one.
            ++retries;
            const Cycles fill = cache.mshrs.nextFillCycle();
            retryAt_ = fill == kNoCycle ? now + 1 : std::max(fill,
                                                             now + 1);
            return std::nullopt;
        }
        retryAt_ = 0;
        ++accessesIssued;
        queue_.pop_front();
        if (req.warpSlot < 0)
            return std::nullopt;
        Warp &warp = warps[req.warpSlot];
        latte_assert(warp.pendingAccesses > 0);
        warp.memReady = std::max(warp.memReady, res.readyCycle);
        if (--warp.pendingAccesses != 0)
            return std::nullopt;
        warp.state = WarpState::Active;
        return LoadWake{warp.slot, warp.memReady};
    }

    bool busy() const { return !queue_.empty(); }
    std::size_t depth() const { return queue_.size(); }
    void clear() { queue_.clear(); retryAt_ = 0; }

    /** Next cycle the LSU can make progress (valid while busy()). */
    Cycles
    nextEvent(Cycles now) const
    {
        return std::max(retryAt_, now + 1);
    }

    Counter accessesIssued;
    Counter retries;

  private:
    struct Request
    {
        Addr lineAddr;
        bool store;
        int warpSlot;   //!< -1 for stores
    };

    std::deque<Request> queue_;
    Cycles retryAt_ = 0;
};

} // namespace latte

#endif // LATTE_SIM_LSU_HH
