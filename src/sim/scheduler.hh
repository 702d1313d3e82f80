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
#include <memory>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace latte
{

/**
 * One of an SM's warp schedulers. Scheduler s of an SM with S schedulers
 * owns warp slots s, s + S, s + 2S, ...; slot w is its local slot w / S.
 * Per local slot it keeps the warp's wake cycle — the cycle an Active
 * warp can issue next, kNoCycle in every other state — and its GTO age.
 *
 * Readiness is kept by a wake calendar. Every slot with a wake has its
 * bit in exactly one slot mask, judged against base_, the cycle of the
 * last scan (or 0 before the first):
 *  - ready, if its wake is at most base_;
 *  - bucket wake % 64, if base_ < wake <= base_ + 64, so one bucket
 *    holds the slots of one cycle;
 *  - far, otherwise (mostly load wakes, ~230 cycles out).
 * An insert is classified against base_, not against the cycle it
 * happens at: the LSU wakes a warp before the tick's scan, and a wake
 * judged against that later cycle could land in a bucket the scan is
 * about to drain as due. A far slot stays far as base_ advances, so
 * farMin_, the earliest far wake (exact, or 0 once setWake moved the
 * slot that held it), decides when a scan walks the far bits.
 *
 * A scan drains the buckets of base_ + 1 .. now, found through one
 * occupancy word, and so pays for the cycles that came due rather than
 * for one compare per waiting warp. readyCount_ counts the ready bits
 * and each bucket its own (std::popcount is a libgcc call without
 * -mpopcnt). A pick walks the ready bits.
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
        : policy_(policy), id_(id), slots_(slots), words_((slots + 63) / 64),
          state_(std::make_unique<std::uint64_t[]>(
              wakesOffset() + 2 * std::size_t{slots}))
    {
        std::fill_n(wakes(), slots_, kNoCycle);
    }

    std::uint32_t id() const { return id_; }

    /** Empty every slot. Greedy and rotation state carry over. */
    void
    clear()
    {
        std::fill_n(readyMask(), wakesOffset(), 0);
        std::fill_n(wakes(), slots_, kNoCycle);
        occupied_ = 0;
        readyCount_ = 0;
        farMin_ = kNoCycle;
        base_ = 0;
    }

    /** A new warp with GTO stamp @p age enters @p local; it wakes at @p wake. */
    void
    assign(std::uint32_t local, std::uint64_t age, Cycles wake)
    {
        ages()[local] = age;
        setWake(local, wake);
    }

    /** The warp in @p local can next issue at @p wake (kNoCycle: never). */
    void
    setWake(std::uint32_t local, Cycles wake)
    {
        const std::size_t word = local / 64;
        const std::uint64_t bit = std::uint64_t{1} << local % 64;
        Cycles &slot_wake = wakes()[local];
        if ((readyMask()[word] & bit) != 0) {
            readyMask()[word] &= ~bit;
            --readyCount_;
        } else if ((farMask()[word] & bit) != 0) {
            farMask()[word] &= ~bit;
            // Moving the earliest far wake leaves the next scan to find it.
            if (slot_wake == farMin_)
                farMin_ = 0;
        } else if (slot_wake != kNoCycle) {
            const int b = bucketOf(slot_wake);
            bucketMask(b)[word] &= ~bit;
            if (--bucketCount(b) == 0)
                occupied_ &= ~(std::uint64_t{1} << b);
        }
        slot_wake = wake;
        if (wake != kNoCycle)
            place(local, wake);
    }

    /**
     * Count the ready warps at @p now and pick the one to issue. @p now
     * is never earlier than the previous scan's: ready bits stay set.
     */
    Scan
    scan(Cycles now)
    {
        latte_assert(now >= base_, "scheduler clock went backwards");
        // Bit p of the rotated word is the bucket of cycle base_ + 1 + p.
        std::uint64_t due = std::rotr(occupied_, bucketOf(base_ + 1));
        if (now - base_ < kHorizon)
            due &= (std::uint64_t{1} << (now - base_)) - 1;
        for (; due != 0; due &= due - 1)
            drain(bucketOf(base_ + 1 + std::countr_zero(due)));
        base_ = now;
        if (farMin_ <= now)
            walkFar();

        Scan result{readyCount_, -1, farMin_};
        // The buckets left hold wakes now + 1 .. now + 64.
        if (const std::uint64_t later =
                std::rotr(occupied_, bucketOf(now + 1));
            later != 0) {
            result.nextWake = std::min<Cycles>(
                result.nextWake, now + 1 + std::countr_zero(later));
        }
        if (readyCount_ == 0)
            return result;
        if (policy_ == GpuConfig::SchedPolicy::GTO) {
            // The greedy warp while it is ready, else the oldest ready.
            const bool greedy_ready =
                greedy_ < slots_ &&
                (readyMask()[greedy_ / 64] >> greedy_ % 64 & 1) != 0;
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
        rrNext_ = local + 1 == slots_ ? 0 : local + 1;
    }

  private:
    /** No slot has issued yet. */
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};
    /** Calendar buckets: one per cycle of base_ + 1 .. base_ + 64. */
    static constexpr Cycles kHorizon = 64;

    /** The bucket of wake cycle @p c (its bit in occupied_). */
    static int bucketOf(Cycles c) { return static_cast<int>(c % kHorizon); }

    // state_ holds the ready mask, the far mask, then buckets 0..63,
    // each its slot count followed by its mask, and last the wake cycles
    // and GTO ages of the local slots: one block, so a scan touches few
    // cache lines.
    std::uint64_t *readyMask() const { return state_.get(); }
    std::uint64_t *farMask() const { return state_.get() + words_; }
    std::uint64_t &
    bucketCount(int b) const
    {
        return state_[2 * words_ + static_cast<std::size_t>(b) * (1 + words_)];
    }
    std::uint64_t *bucketMask(int b) const { return &bucketCount(b) + 1; }
    std::size_t
    wakesOffset() const
    {
        return 2 * words_ + kHorizon * (1 + words_);
    }
    Cycles *wakes() const { return state_.get() + wakesOffset(); }
    std::uint64_t *ages() const { return wakes() + slots_; }

    /** File @p local, which holds no bit, under its wake @p wake. */
    void
    place(std::uint32_t local, Cycles wake)
    {
        const std::size_t word = local / 64;
        const std::uint64_t bit = std::uint64_t{1} << local % 64;
        if (wake <= base_) {
            readyMask()[word] |= bit;
            ++readyCount_;
        } else if (wake - base_ <= kHorizon) {
            const int b = bucketOf(wake);
            bucketMask(b)[word] |= bit;
            ++bucketCount(b);
            occupied_ |= std::uint64_t{1} << b;
        } else {
            farMask()[word] |= bit;
            farMin_ = std::min(farMin_, wake);
        }
    }

    /** Move bucket @p b's slots, whose wake has come, to ready. */
    void
    drain(int b)
    {
        std::uint64_t *bucket = bucketMask(b);
        std::uint64_t *ready = readyMask();
        for (std::size_t w = 0; w < words_; ++w) {
            ready[w] |= bucket[w];
            bucket[w] = 0;
        }
        readyCount_ += static_cast<std::uint32_t>(bucketCount(b));
        bucketCount(b) = 0;
        occupied_ &= ~(std::uint64_t{1} << b);
    }

    /** Re-file every far slot against base_ and recompute farMin_. */
    void
    walkFar()
    {
        farMin_ = kNoCycle;
        for (std::size_t w = 0; w < words_; ++w) {
            const std::uint64_t bits = farMask()[w];
            farMask()[w] = 0;
            for (std::uint64_t rest = bits; rest != 0; rest &= rest - 1) {
                const auto local = static_cast<std::uint32_t>(
                    w * 64 + std::countr_zero(rest));
                place(local, wakes()[local]);
            }
        }
    }

    /** The first ready slot at or after @p from, or -1. */
    int
    firstReady(std::uint32_t from) const
    {
        for (std::size_t w = from / 64; w < words_; ++w) {
            std::uint64_t bits = readyMask()[w];
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
        for (std::size_t w = 0; w < words_; ++w) {
            for (std::uint64_t bits = readyMask()[w]; bits != 0;
                 bits &= bits - 1) {
                const auto k = w * 64 + std::countr_zero(bits);
                if (ages()[k] < best_age) {
                    best_age = ages()[k];
                    pick = static_cast<int>(k);
                }
            }
        }
        return pick;
    }

    GpuConfig::SchedPolicy policy_;
    std::uint32_t id_;
    std::uint32_t slots_;
    /** 64-bit words per slot mask. */
    std::uint32_t words_;
    std::uint32_t readyCount_ = 0;
    std::uint32_t greedy_ = kNone;
    std::uint32_t rrNext_ = 0;
    /** Bit b set while bucket b holds a slot. */
    std::uint64_t occupied_ = 0;
    Cycles farMin_ = kNoCycle;
    Cycles base_ = 0;
    std::unique_ptr<std::uint64_t[]> state_;
};

} // namespace latte

#endif // LATTE_SIM_SCHEDULER_HH
