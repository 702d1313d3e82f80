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
 * warp can issue next, kNoCycle in every other state — and its GTO age,
 * each in one contiguous array, so a cycle's decision is one pass.
 */
class WarpScheduler
{
  public:
    /** What one pass over the slots finds at a cycle. */
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
        : policy_(policy), id_(id), wake_(slots, kNoCycle), age_(slots, 0)
    {}

    std::uint32_t id() const { return id_; }

    /** Empty every slot. Greedy and rotation state carry over. */
    void clear() { std::fill(wake_.begin(), wake_.end(), kNoCycle); }

    /** A new warp with GTO stamp @p age enters @p local; it wakes at @p wake. */
    void
    assign(std::uint32_t local, std::uint64_t age, Cycles wake)
    {
        age_[local] = age;
        wake_[local] = wake;
    }

    /** The warp in @p local can next issue at @p wake (kNoCycle: never). */
    void setWake(std::uint32_t local, Cycles wake) { wake_[local] = wake; }

    /** Count the ready warps at @p now and pick the one to issue. */
    Scan
    scan(Cycles now) const
    {
        Scan result;
        const auto n = static_cast<std::uint32_t>(wake_.size());
        if (policy_ == GpuConfig::SchedPolicy::GTO) {
            // The greedy warp while it is ready, else the oldest ready.
            bool greedy_ready = false;
            std::uint64_t best_age = ~std::uint64_t{0};
            for (std::uint32_t k = 0; k < n; ++k) {
                if (wake_[k] > now) {
                    result.nextWake = std::min(result.nextWake, wake_[k]);
                    continue;
                }
                ++result.ready;
                if (k == greedy_) {
                    greedy_ready = true;
                } else if (age_[k] < best_age) {
                    best_age = age_[k];
                    result.pick = static_cast<int>(k);
                }
            }
            if (greedy_ready)
                result.pick = static_cast<int>(greedy_);
            return result;
        }

        // LRR: the first ready slot at or after the one past the last
        // issue, wrapping around.
        int wrapped = -1;
        for (std::uint32_t k = 0; k < n; ++k) {
            if (wake_[k] > now) {
                result.nextWake = std::min(result.nextWake, wake_[k]);
                continue;
            }
            ++result.ready;
            if (k < rrNext_) {
                if (wrapped < 0)
                    wrapped = static_cast<int>(k);
            } else if (result.pick < 0) {
                result.pick = static_cast<int>(k);
            }
        }
        if (result.pick < 0)
            result.pick = wrapped;
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

    GpuConfig::SchedPolicy policy_;
    std::uint32_t id_;
    std::vector<Cycles> wake_;
    std::vector<std::uint64_t> age_;
    std::uint32_t greedy_ = kNone;
    std::uint32_t rrNext_ = 0;
};

} // namespace latte

#endif // LATTE_SIM_SCHEDULER_HH
