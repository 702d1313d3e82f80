/**
 * @file
 * Warp schedulers. The paper's baseline uses Greedy-Then-Oldest (GTO,
 * Rogers et al., MICRO 2012): keep issuing from the current warp until it
 * stalls, then switch to the oldest ready warp. Loose round-robin (LRR)
 * is provided for comparison studies.
 */

#ifndef LATTE_SIM_SCHEDULER_HH
#define LATTE_SIM_SCHEDULER_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"

namespace latte
{

/**
 * One of an SM's warp schedulers. Scheduler s of an SM with S schedulers
 * owns warp slots s, s + S, s + 2S, ...; slot w is its local slot w / S.
 * Per local slot it keeps the warp's wake cycle — the cycle an Active
 * warp can issue next, kNoCycle in every other state — and its GTO age.
 *
 * Readiness is incremental: every slot with a wake has its bit in
 * exactly one of two masks, ready (its wake had come at the last scan)
 * or pending. nextWake_ is the earliest pending wake, or 0 when a scan
 * must recompute it, so a scan walks the pending bits only once that
 * wake has come. readyCount_ counts the ready bits (std::popcount is a
 * libgcc call without -mpopcnt); a pick walks them.
 */
class WarpScheduler
{
  public:
    /** What a scan finds at a cycle. */
    struct Scan
    {
        /** Warps that could issue this cycle (the tolerance meter's input). */
        std::uint32_t ready = 0;
        /** Local slot to issue, or -1 when none is ready. */
        int pick = -1;
        /** Earliest wake among the warps not yet ready, or kNoCycle. */
        Cycles nextWake = kNoCycle;
    };

    WarpScheduler(GpuConfig::SchedPolicy policy, std::uint32_t id,
                  std::uint32_t slots)
        : policy_(policy), id_(id), wake_(slots, kNoCycle), age_(slots, 0),
          ready_((slots + 63) / 64, 0), pending_(ready_.size(), 0)
    {}

    std::uint32_t id() const { return id_; }

    /** Empty every slot. Greedy and rotation state carry over. */
    void
    clear()
    {
        std::fill(wake_.begin(), wake_.end(), kNoCycle);
        std::fill(ready_.begin(), ready_.end(), 0);
        std::fill(pending_.begin(), pending_.end(), 0);
        readyCount_ = 0;
        nextWake_ = kNoCycle;
    }

    /** A new warp with GTO stamp @p age enters @p local; it wakes at @p wake. */
    void
    assign(std::uint32_t local, std::uint64_t age, Cycles wake)
    {
        age_[local] = age;
        setWake(local, wake);
    }

    /** The warp in @p local can next issue at @p wake (kNoCycle: never). */
    void
    setWake(std::uint32_t local, Cycles wake)
    {
        const std::uint64_t bit = std::uint64_t{1} << local % 64;
        std::uint64_t &ready = ready_[local / 64];
        std::uint64_t &pending = pending_[local / 64];
        if ((ready & bit) != 0)
            --readyCount_;
        // Moving the earliest pending wake leaves the next scan to find it.
        if ((pending & bit) != 0 && wake_[local] == nextWake_)
            nextWake_ = 0;
        ready &= ~bit;
        pending &= ~bit;
        wake_[local] = wake;
        if (wake != kNoCycle) {
            pending |= bit;
            nextWake_ = std::min(nextWake_, wake);
        }
    }

    /**
     * Count the ready warps at @p now and pick the one to issue. @p now
     * is never earlier than the previous scan's: ready bits stay set.
     */
    Scan
    scan(Cycles now)
    {
        if (nextWake_ <= now)
            promote(now);

        Scan result{readyCount_, -1, nextWake_};
        if (readyCount_ == 0)
            return result;
        if (policy_ == GpuConfig::SchedPolicy::GTO) {
            // The greedy warp while it is ready, else the oldest ready.
            const bool greedy_ready =
                greedy_ < wake_.size() &&
                (ready_[greedy_ / 64] >> greedy_ % 64 & 1) != 0;
            result.pick = greedy_ready ? static_cast<int>(greedy_)
                                       : oldestReady();
        } else {
            // LRR: the first ready slot at or after the one past the
            // last issue, wrapping around.
            result.pick = firstReady(rrNext_);
            if (result.pick < 0)
                result.pick = firstReady(0);
        }
        return result;
    }

    /** Record that @p local issued (greedy warp, rotation point). */
    void
    noteIssued(std::uint32_t local)
    {
        greedy_ = local;
        rrNext_ = local + 1 == wake_.size() ? 0 : local + 1;
    }

  private:
    /** No slot has issued yet. */
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    /** Move the pending slots whose wake has come to ready. */
    void
    promote(Cycles now)
    {
        nextWake_ = kNoCycle;
        for (std::size_t w = 0; w < pending_.size(); ++w) {
            for (std::uint64_t bits = pending_[w]; bits != 0;
                 bits &= bits - 1) {
                const int b = std::countr_zero(bits);
                const Cycles wake = wake_[w * 64 + b];
                if (wake > now) {
                    nextWake_ = std::min(nextWake_, wake);
                    continue;
                }
                pending_[w] &= ~(std::uint64_t{1} << b);
                ready_[w] |= std::uint64_t{1} << b;
                ++readyCount_;
            }
        }
    }

    /** The first ready slot at or after @p from, or -1. */
    int
    firstReady(std::uint32_t from) const
    {
        for (std::size_t w = from / 64; w < ready_.size(); ++w) {
            std::uint64_t bits = ready_[w];
            if (w == from / 64)
                bits &= ~std::uint64_t{0} << from % 64;
            if (bits != 0)
                return static_cast<int>(w * 64 + std::countr_zero(bits));
        }
        return -1;
    }

    /** The ready slot with the smallest age; the first slot wins a tie. */
    int
    oldestReady() const
    {
        int pick = -1;
        std::uint64_t best_age = ~std::uint64_t{0};
        for (std::size_t w = 0; w < ready_.size(); ++w) {
            for (std::uint64_t bits = ready_[w]; bits != 0;
                 bits &= bits - 1) {
                const auto k = w * 64 + std::countr_zero(bits);
                if (age_[k] < best_age) {
                    best_age = age_[k];
                    pick = static_cast<int>(k);
                }
            }
        }
        return pick;
    }

    GpuConfig::SchedPolicy policy_;
    std::uint32_t id_;
    std::vector<Cycles> wake_;
    std::vector<std::uint64_t> age_;
    std::vector<std::uint64_t> ready_;
    std::vector<std::uint64_t> pending_;
    std::uint32_t readyCount_ = 0;
    Cycles nextWake_ = kNoCycle;
    std::uint32_t greedy_ = kNone;
    std::uint32_t rrNext_ = 0;
};

} // namespace latte

#endif // LATTE_SIM_SCHEDULER_HH
