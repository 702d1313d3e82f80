/**
 * @file
 * Unit and integration tests for the SIMT core model: the GTO/LRR
 * schedulers (and their equivalence with the three-scan scheduler they
 * replaced), CTA placement, end-to-end kernel execution, idle-gap
 * skipping, the memory pipeline under the full GPU, and the
 * --sim-threads resolver, which still validates the ignored option.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <iterator>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "sim/gpu.hh"
#include "sim/scheduler.hh"
#include "sim/thread_pool.hh"
#include "workloads/synthetic_kernel.hh"
#include "workloads/value_gens.hh"

using namespace latte;

// ---------------------------------------------------------- scheduler

namespace
{

/** A scheduler over @p n slots whose warps all wake at @p wake, aged 0..n-1. */
WarpScheduler
makeScheduler(GpuConfig::SchedPolicy policy, std::uint32_t n,
              Cycles wake = 0)
{
    WarpScheduler sched(policy, 0, n);
    for (std::uint32_t i = 0; i < n; ++i)
        sched.assign(i, i, wake);
    return sched;
}

} // namespace

TEST(Scheduler, GtoStaysGreedy)
{
    WarpScheduler sched = makeScheduler(GpuConfig::SchedPolicy::GTO, 4);

    WarpScheduler::Scan scan = sched.scan(0);
    EXPECT_EQ(scan.ready, 4u);
    EXPECT_EQ(scan.pick, 0); // oldest first
    sched.noteIssued(2); // pretend 2 became the greedy warp
    scan = sched.scan(1);
    EXPECT_EQ(scan.pick, 2) << "GTO sticks with the greedy warp while ready";
}

TEST(Scheduler, GtoFallsBackToOldest)
{
    WarpScheduler sched = makeScheduler(GpuConfig::SchedPolicy::GTO, 4);
    sched.assign(0, 100, 0); // make warp 1 the oldest
    sched.noteIssued(3);
    sched.setWake(3, 50); // greedy stalls

    const WarpScheduler::Scan scan = sched.scan(0);
    EXPECT_EQ(scan.pick, 1);
    EXPECT_EQ(scan.ready, 3u);
    EXPECT_EQ(scan.nextWake, 50u);
}

TEST(Scheduler, NoReadyWarps)
{
    WarpScheduler sched =
        makeScheduler(GpuConfig::SchedPolicy::GTO, 1, /*wake=*/100);
    const WarpScheduler::Scan scan = sched.scan(0);
    EXPECT_EQ(scan.pick, -1);
    EXPECT_EQ(scan.ready, 0u);
    EXPECT_EQ(scan.nextWake, 100u);
}

TEST(Scheduler, LrrRotates)
{
    WarpScheduler sched = makeScheduler(GpuConfig::SchedPolicy::LRR, 3);

    EXPECT_EQ(sched.scan(0).pick, 0);
    sched.noteIssued(0);
    EXPECT_EQ(sched.scan(1).pick, 1);
    sched.noteIssued(1);
    EXPECT_EQ(sched.scan(2).pick, 2);
    sched.noteIssued(2);
    EXPECT_EQ(sched.scan(3).pick, 0) << "rotation wraps around";
}

// ------------------------------------ scheduler vs. three-scan reference

namespace
{

/** A warp slot as the three-scan reference saw it. */
struct RefWarp
{
    WarpState state = WarpState::Unassigned;
    /** Meaningful while Active; any stale value otherwise. */
    Cycles readyAt = 0;
    std::uint64_t age = 0;

    bool
    ready(Cycles now) const
    {
        return state == WarpState::Active && readyAt != kNoCycle &&
               readyAt <= now;
    }

    bool
    sleeping(Cycles now) const
    {
        return (state == WarpState::Active ||
                state == WarpState::WaitMem) &&
               readyAt != kNoCycle && readyAt > now;
    }
};

/**
 * Brute-force oracle with the three-scan scheduler's semantics: it walks
 * its slots of the SM's whole warp array once to pick, once to find the
 * issued slot's rotation index and once for the earliest wake.
 */
class ThreeScanScheduler
{
  public:
    ThreeScanScheduler(GpuConfig::SchedPolicy policy) : policy_(policy) {}

    void addSlot(std::uint32_t slot) { slots_.push_back(slot); }

    int
    pick(const std::vector<RefWarp> &warps, Cycles now,
         std::uint32_t &ready_count) const
    {
        ready_count = 0;
        int best = -1;
        if (policy_ == GpuConfig::SchedPolicy::GTO) {
            std::uint64_t best_age = ~std::uint64_t{0};
            bool greedy_ready = false;
            for (const std::uint32_t slot : slots_) {
                const RefWarp &warp = warps[slot];
                if (!warp.ready(now))
                    continue;
                ++ready_count;
                if (static_cast<int>(slot) == greedy_) {
                    greedy_ready = true;
                } else if (warp.age < best_age) {
                    best_age = warp.age;
                    best = static_cast<int>(slot);
                }
            }
            return greedy_ready ? greedy_ : best;
        }
        const std::size_t n = slots_.size();
        for (std::size_t k = 0; k < n; ++k) {
            const std::uint32_t slot = slots_[(rrNext_ + k) % n];
            if (warps[slot].ready(now)) {
                ++ready_count;
                if (best < 0)
                    best = static_cast<int>(slot);
            }
        }
        return best;
    }

    void
    noteIssued(std::uint32_t slot)
    {
        greedy_ = static_cast<int>(slot);
        for (std::size_t k = 0; k < slots_.size(); ++k) {
            if (slots_[k] == slot) {
                rrNext_ = (k + 1) % slots_.size();
                break;
            }
        }
    }

    Cycles
    nextWake(const std::vector<RefWarp> &warps, Cycles now) const
    {
        Cycles wake = kNoCycle;
        for (const std::uint32_t slot : slots_) {
            if (warps[slot].sleeping(now) && warps[slot].readyAt < wake)
                wake = warps[slot].readyAt;
        }
        return wake;
    }

  private:
    GpuConfig::SchedPolicy policy_;
    std::vector<std::uint32_t> slots_;
    int greedy_ = -1;
    std::size_t rrNext_ = 0;
};

/**
 * One SM's schedulers in both forms, fed the same warp transitions the
 * SM makes: assignment, issue (ALU, store, load, exit), load completion.
 */
class SchedulerPair
{
  public:
    SchedulerPair(GpuConfig::SchedPolicy policy, std::uint32_t schedulers,
                  std::uint32_t slots)
        : n_(schedulers), warps_(slots)
    {
        for (std::uint32_t s = 0; s < n_; ++s) {
            fast_.emplace_back(policy, s, (slots + n_ - 1 - s) / n_);
            ref_.emplace_back(policy);
        }
        for (std::uint32_t w = 0; w < slots; ++w)
            ref_[w % n_].addSlot(w);
    }

    const RefWarp &warp(std::uint32_t slot) const { return warps_[slot]; }

    /** Put @p slot in @p state; the reference keeps @p ready_at. */
    void
    set(std::uint32_t slot, WarpState state, Cycles ready_at,
        std::uint64_t age)
    {
        warps_[slot] = {state, ready_at, age};
        fast_[slot % n_].assign(slot / n_, age,
                                state == WarpState::Active ? ready_at
                                                           : kNoCycle);
    }

    /**
     * Move @p slot to @p state through setWake alone, keeping its age:
     * Active with @p ready_at, or WaitMem (kNoCycle in both forms).
     */
    void
    wake(std::uint32_t slot, WarpState state, Cycles ready_at)
    {
        warps_[slot].state = state;
        warps_[slot].readyAt =
            state == WarpState::Active ? ready_at : kNoCycle;
        fast_[slot % n_].setWake(slot / n_, warps_[slot].readyAt);
    }

    void
    noteIssued(std::uint32_t slot)
    {
        ref_[slot % n_].noteIssued(slot);
        fast_[slot % n_].noteIssued(slot / n_);
    }

    /**
     * One SM tick's issue decisions, compared scheduler by scheduler.
     * @p issue gives the state and ready cycle an issued slot moves to.
     * @return the SM's next tick as the reference computed it, checked
     *         against the one-pass value.
     */
    template <typename IssueFn>
    Cycles
    tick(Cycles now, IssueFn &&issue)
    {
        bool issued = false;
        Cycles fast_next = kNoCycle;
        for (std::uint32_t s = 0; s < n_; ++s) {
            std::uint32_t ready = 0;
            const int ref_pick = ref_[s].pick(warps_, now, ready);
            const WarpScheduler::Scan scan = fast_[s].scan(now);
            EXPECT_EQ(scan.ready, ready) << "scheduler " << s;
            EXPECT_EQ(scan.nextWake, ref_[s].nextWake(warps_, now))
                << "scheduler " << s;
            const int fast_pick =
                scan.pick < 0 ? -1
                              : static_cast<int>(scan.pick * n_ + s);
            EXPECT_EQ(fast_pick, ref_pick) << "scheduler " << s;
            fast_next = std::min(fast_next, scan.nextWake);
            if (ref_pick < 0)
                continue;
            const auto slot = static_cast<std::uint32_t>(ref_pick);
            noteIssued(slot);
            const auto [state, ready_at] = issue(slot);
            warps_[slot].state = state;
            // The reference left an exiting warp's ready cycle stale.
            if (state != WarpState::Finished)
                warps_[slot].readyAt = ready_at;
            fast_[s].setWake(slot / n_, state == WarpState::Active
                                            ? ready_at
                                            : kNoCycle);
            issued = true;
        }
        Cycles ref_next = issued ? now + 1 : kNoCycle;
        for (std::uint32_t s = 0; s < n_; ++s)
            ref_next = std::min(ref_next, ref_[s].nextWake(warps_, now));
        EXPECT_EQ(issued ? now + 1 : fast_next, ref_next);
        return ref_next;
    }

  private:
    std::uint32_t n_;
    std::vector<RefWarp> warps_;
    std::vector<WarpScheduler> fast_;
    std::vector<ThreeScanScheduler> ref_;
};

GpuConfig::SchedPolicy
randomPolicy(std::mt19937_64 &rng)
{
    return rng() % 2 ? GpuConfig::SchedPolicy::GTO
                     : GpuConfig::SchedPolicy::LRR;
}

/**
 * An SM-like stream of ticks, issues, load completions and drains over
 * @p pair's @p slots, as IssueStreamMatchesThreeScans runs it. With
 * @p reassign, each step also moves a few Active slots (pending or
 * ready) through assign() or setWake(): to an earlier or later wake,
 * or into a load.
 */
void
runIssueStream(std::mt19937_64 &rng, SchedulerPair &pair,
               std::uint32_t slots, int steps, bool reassign)
{
    std::uint64_t age_clock = 0;
    Cycles now = 0;
    for (std::uint32_t w = 0; w < slots; ++w) {
        if (rng() % 4 != 0)
            pair.set(w, WarpState::Active, 1, age_clock++);
    }
    // Loads in flight: completion cycle per waiting slot.
    std::map<std::uint32_t, Cycles> loads;

    for (int step = 0; step < steps; ++step) {
        const Cycles next = pair.tick(now, [&](std::uint32_t slot) {
            switch (rng() % 8) {
              case 0:
                loads[slot] = now + 1 + rng() % 300;
                return std::pair{WarpState::WaitMem, kNoCycle};
              case 1:
                return std::pair{WarpState::Finished, kNoCycle};
              case 2:
                return std::pair{WarpState::Active, now + 1};
              default:
                return std::pair{WarpState::Active, now + 1 + rng() % 12};
            }
        });
        if (::testing::Test::HasFailure())
            FAIL() << "step " << step;

        // The next event: a tick, a load completion, or (when the SM
        // idles) new warps in the empty slots.
        Cycles load_due = kNoCycle;
        for (const auto &[slot, due] : loads)
            load_due = std::min(load_due, due);
        const Cycles prev = now;
        now = std::min(next, load_due);
        if (now == kNoCycle) {
            now = prev + 1;
            for (std::uint32_t w = 0; w < slots; ++w) {
                if (pair.warp(w).state != WarpState::WaitMem)
                    pair.set(w, WarpState::Active, now, age_clock++);
            }
            continue;
        }
        for (auto it = loads.begin(); it != loads.end();) {
            if (it->second != now) {
                ++it;
                continue;
            }
            pair.set(it->first, WarpState::Active, now + rng() % 3,
                     pair.warp(it->first).age);
            it = loads.erase(it);
        }
        for (std::uint32_t w = 0; w < slots; ++w) {
            if (pair.warp(w).state == WarpState::Finished &&
                rng() % 16 == 0) {
                pair.set(w, WarpState::Unassigned, pair.warp(w).readyAt,
                         pair.warp(w).age);
            }
        }
        if (!reassign)
            continue;

        for (std::uint64_t k = rng() % 4; k > 0; --k) {
            const auto w = static_cast<std::uint32_t>(rng() % slots);
            if (pair.warp(w).state != WarpState::Active)
                continue;
            // Earlier, the same, or later than now, so a pending slot
            // that held the earliest wake can move past the others.
            const Cycles wake = now - std::min<Cycles>(now, rng() % 4) +
                                rng() % 40;
            switch (rng() % 4) {
              case 0:
                pair.set(w, WarpState::Active, wake, rng() % 8);
                break;
              case 1:
                pair.wake(w, WarpState::WaitMem, kNoCycle);
                loads[w] = now + 1 + rng() % 50;
                break;
              default:
                pair.wake(w, WarpState::Active, wake);
                break;
            }
        }
    }
}

} // namespace

TEST(SchedulerDiff, RandomWarpStatesMatchThreeScans)
{
    std::mt19937_64 rng(7);
    for (int trial = 0; trial < 3000; ++trial) {
        const std::uint32_t schedulers = 1 + rng() % 4;
        const std::uint32_t slots = 1 + rng() % 48;
        SchedulerPair pair(randomPolicy(rng), schedulers, slots);
        const Cycles now = 20 + rng() % 1000;

        for (std::uint32_t w = 0; w < slots; ++w) {
            // Few distinct ages, so GTO's tie-break (first slot) shows.
            const std::uint64_t age = rng() % 8;
            const Cycles any =
                rng() % 8 == 0 ? kNoCycle : now - 20 + rng() % 40;
            switch (rng() % 4) {
              case 0:
                pair.set(w, WarpState::Active, any, age);
                break;
              case 1:
                // The issue path cleared a loading warp's ready cycle;
                // one left from before the load lies in the past.
                pair.set(w, WarpState::WaitMem,
                         rng() % 2 ? kNoCycle : now - rng() % 20, age);
                break;
              case 2:
                pair.set(w, WarpState::Finished, any, age);
                break;
              default:
                pair.set(w, WarpState::Unassigned, any, age);
                break;
            }
        }
        // Greedy warp and rotation point from earlier issues.
        for (std::uint64_t k = rng() % 4; k > 0; --k)
            pair.noteIssued(rng() % slots);

        pair.tick(now, [&](std::uint32_t) {
            return std::pair{WarpState::Active, now + 1 + rng() % 5};
        });
        if (::testing::Test::HasFailure())
            FAIL() << "trial " << trial;
    }
}

TEST(SchedulerDiff, IssueStreamMatchesThreeScans)
{
    std::mt19937_64 rng(11);
    for (int trial = 0; trial < 60; ++trial) {
        const std::uint32_t schedulers = 1 + rng() % 4;
        const std::uint32_t slots = 1 + rng() % 48;
        SchedulerPair pair(randomPolicy(rng), schedulers, slots);

        std::uint64_t age_clock = 0;
        Cycles now = 0;
        for (std::uint32_t w = 0; w < slots; ++w) {
            if (rng() % 4 != 0)
                pair.set(w, WarpState::Active, 1, age_clock++);
        }
        // Loads in flight: completion cycle per waiting slot.
        std::map<std::uint32_t, Cycles> loads;

        for (int step = 0; step < 2000; ++step) {
            const Cycles next = pair.tick(now, [&](std::uint32_t slot) {
                switch (rng() % 8) {
                  case 0:
                    loads[slot] = now + 1 + rng() % 300;
                    return std::pair{WarpState::WaitMem, kNoCycle};
                  case 1:
                    return std::pair{WarpState::Finished, kNoCycle};
                  case 2:
                    return std::pair{WarpState::Active, now + 1};
                  default:
                    return std::pair{WarpState::Active,
                                     now + 1 + rng() % 12};
                }
            });
            if (::testing::Test::HasFailure())
                FAIL() << "trial " << trial << " step " << step;

            // The next event: a tick, a load completion, or (when the SM
            // idles) new warps in the empty slots.
            Cycles load_due = kNoCycle;
            for (const auto &[slot, due] : loads)
                load_due = std::min(load_due, due);
            const Cycles prev = now;
            now = std::min(next, load_due);
            if (now == kNoCycle) {
                now = prev + 1;
                for (std::uint32_t w = 0; w < slots; ++w) {
                    if (pair.warp(w).state != WarpState::WaitMem)
                        pair.set(w, WarpState::Active, now, age_clock++);
                }
                continue;
            }
            for (auto it = loads.begin(); it != loads.end();) {
                if (it->second != now) {
                    ++it;
                    continue;
                }
                pair.set(it->first, WarpState::Active, now + rng() % 3,
                         pair.warp(it->first).age);
                it = loads.erase(it);
            }
            // Finished slots drain to Unassigned, ready cycle untouched.
            for (std::uint32_t w = 0; w < slots; ++w) {
                if (pair.warp(w).state == WarpState::Finished &&
                    rng() % 16 == 0) {
                    pair.set(w, WarpState::Unassigned,
                             pair.warp(w).readyAt, pair.warp(w).age);
                }
            }
        }
    }
}

TEST(SchedulerDiff, MoreThan64LocalSlotsMatchThreeScans)
{
    // Nothing caps cfg.max_warps_per_sm, so one scheduler's ready and
    // pending masks can span several 64-bit words.
    std::mt19937_64 rng(13);
    for (int trial = 0; trial < 400; ++trial) {
        const std::uint32_t schedulers = 1 + rng() % 2;
        const std::uint32_t slots = 65 * schedulers + rng() % 200;
        SchedulerPair pair(randomPolicy(rng), schedulers, slots);
        const Cycles now = 20 + rng() % 1000;
        for (std::uint32_t w = 0; w < slots; ++w) {
            const std::uint64_t age = rng() % 8;
            switch (rng() % 4) {
              case 0:
              case 1:
                pair.set(w, WarpState::Active,
                         rng() % 8 == 0 ? kNoCycle : now - 20 + rng() % 40,
                         age);
                break;
              case 2:
                pair.set(w, WarpState::WaitMem, kNoCycle, age);
                break;
              default:
                pair.set(w, WarpState::Finished, kNoCycle, age);
                break;
            }
        }
        for (std::uint64_t k = rng() % 4; k > 0; --k)
            pair.noteIssued(rng() % slots);
        pair.tick(now, [&](std::uint32_t) {
            return std::pair{WarpState::Active, now + 1 + rng() % 5};
        });
        if (::testing::Test::HasFailure())
            FAIL() << "trial " << trial;
    }

    for (int trial = 0; trial < 12; ++trial) {
        const std::uint32_t schedulers = 1 + rng() % 2;
        const std::uint32_t slots = 65 * schedulers + rng() % 200;
        SchedulerPair pair(randomPolicy(rng), schedulers, slots);
        runIssueStream(rng, pair, slots, 1500, /*reassign=*/trial % 2);
        if (::testing::Test::HasFailure())
            FAIL() << "stream trial " << trial;
    }
}

TEST(SchedulerDiff, RewakingPendingAndReadySlotsMatchesThreeScans)
{
    // assign() and setWake() on a slot that already waits or is ready:
    // the earliest pending wake must follow a slot that held it.
    std::mt19937_64 rng(17);
    for (int trial = 0; trial < 60; ++trial) {
        const std::uint32_t schedulers = 1 + rng() % 4;
        const std::uint32_t slots = 1 + rng() % 48;
        SchedulerPair pair(randomPolicy(rng), schedulers, slots);
        runIssueStream(rng, pair, slots, 2000, /*reassign=*/true);
        if (::testing::Test::HasFailure())
            FAIL() << "trial " << trial;
    }
}

TEST(SchedulerDiff, WakeCalendarHorizonMatchesThreeScans)
{
    // Wakes at and around the 64-cycle calendar horizon and far beyond
    // it, idle gaps longer than the horizon, load completions filed
    // before the scan of the cycle they happen at, clocks that start
    // late (a second kernel), and more than 64 local slots.
    const Cycles kDistances[] = {1, 2, 63, 64, 65, 127, 128, 129, 300};
    std::mt19937_64 rng(19);
    for (int trial = 0; trial < 80; ++trial) {
        const std::uint32_t schedulers = 1 + rng() % 2;
        const std::uint32_t slots =
            trial % 2 ? 65 * schedulers + rng() % 100 : 1 + rng() % 48;
        SchedulerPair pair(randomPolicy(rng), schedulers, slots);
        const auto distance = [&] {
            return rng() % 2 ? kDistances[rng() % std::size(kDistances)]
                             : 1 + rng() % 400;
        };

        std::uint64_t age_clock = 0;
        Cycles now = trial % 4 < 2 ? 0 : (Cycles{1} << 40) + rng() % 1000;
        for (std::uint32_t w = 0; w < slots; ++w) {
            if (rng() % 4 != 0)
                pair.set(w, WarpState::Active, now + 1, age_clock++);
        }
        // Loads in flight: completion cycle per waiting slot.
        std::map<std::uint32_t, Cycles> loads;

        for (int step = 0; step < 1500; ++step) {
            // The LSU finishes the loads due by now before the scan; the
            // warp can issue `distance` cycles on, or at once.
            for (auto it = loads.begin(); it != loads.end();) {
                if (it->second > now) {
                    ++it;
                    continue;
                }
                pair.wake(it->first, WarpState::Active,
                          rng() % 4 == 0 ? now : now + distance());
                it = loads.erase(it);
            }
            const Cycles next = pair.tick(now, [&](std::uint32_t slot) {
                switch (rng() % 8) {
                  case 0:
                  case 1:
                    loads[slot] = now + distance();
                    return std::pair{WarpState::WaitMem, kNoCycle};
                  case 2:
                    return std::pair{WarpState::Finished, kNoCycle};
                  default:
                    return std::pair{WarpState::Active, now + distance()};
                }
            });
            if (::testing::Test::HasFailure())
                FAIL() << "trial " << trial << " step " << step;

            // The next scan: the SM's next tick or a load's completion,
            // or now and then well past both (an idle gap).
            Cycles load_due = kNoCycle;
            for (const auto &[slot, due] : loads)
                load_due = std::min(load_due, due);
            const Cycles prev = now;
            now = std::min(next, load_due);
            if (now == kNoCycle) {
                now = prev + 1 + rng() % 200;
                for (std::uint32_t w = 0; w < slots; ++w) {
                    if (pair.warp(w).state != WarpState::WaitMem)
                        pair.set(w, WarpState::Active, now + distance(),
                                 age_clock++);
                }
                continue;
            }
            if (rng() % 8 == 0)
                now += 1 + rng() % 300;
            for (std::uint32_t w = 0; w < slots; ++w) {
                if (pair.warp(w).state == WarpState::Finished &&
                    rng() % 16 == 0) {
                    pair.set(w, WarpState::Unassigned,
                             pair.warp(w).readyAt, pair.warp(w).age);
                }
            }
        }
    }
}

// ----------------------------------------------------- whole-GPU runs

namespace
{

KernelSpec
tinyKernel(std::uint32_t ctas, std::uint32_t wpc, std::uint32_t iters)
{
    KernelSpec spec;
    spec.name = "tiny";
    spec.ctas = ctas;
    spec.warpsPerCta = wpc;
    spec.seed = 42;
    PhaseSpec phase;
    phase.iterations = iters;
    phase.loadsPerIter = 1;
    phase.aluPerIter = 2;
    phase.aluLatency = 2;
    phase.storesPerIter = 0;
    phase.pattern.kind = PatternKind::Streaming;
    phase.pattern.base = 0x10000000;
    phase.pattern.sizeBytes = 1 << 20;
    spec.phases.push_back(phase);
    return spec;
}

} // namespace

TEST(Gpu, RunsTinyKernelToCompletion)
{
    MemoryImage mem;
    GpuConfig cfg;
    Gpu gpu(cfg, &mem);

    SyntheticKernel kernel(tinyKernel(4, 2, 5));
    const RunResult result = gpu.runKernel(kernel);
    EXPECT_TRUE(result.completed);
    // 4 CTAs x 2 warps x 5 iters x 3 instructions.
    EXPECT_EQ(result.instructions, 4u * 2 * 5 * 3);
    EXPECT_GT(result.cycles, 0u);
}

TEST(Gpu, InstructionBudgetStopsEarly)
{
    MemoryImage mem;
    GpuConfig cfg;
    Gpu gpu(cfg, &mem);

    SyntheticKernel kernel(tinyKernel(64, 8, 100));
    const RunResult result = gpu.runKernel(kernel, /*max instrs=*/1000);
    EXPECT_FALSE(result.completed);
    EXPECT_GE(result.instructions, 1000u);
    EXPECT_LT(result.instructions, 64u * 8 * 100 * 3);
}

TEST(Gpu, DeterministicAcrossRuns)
{
    const auto run = [] {
        MemoryImage mem;
        GpuConfig cfg;
        Gpu gpu(cfg, &mem);
        SyntheticKernel kernel(tinyKernel(8, 4, 20));
        return gpu.runKernel(kernel).cycles;
    };
    EXPECT_EQ(run(), run());
}

TEST(Gpu, CtaLimitsRespected)
{
    MemoryImage mem;
    GpuConfig cfg;
    Gpu gpu(cfg, &mem);

    // 8 warps per CTA: at most 6 CTAs (48 warp slots) fit per SM even
    // though the block limit is 8.
    SyntheticKernel kernel(tinyKernel(200, 8, 3));
    auto &sm = gpu.sm(0);
    sm.startKernel(&kernel);
    std::uint32_t placed = 0;
    while (sm.canTakeCta()) {
        sm.assignCta(0, placed);
        ++placed;
    }
    EXPECT_EQ(placed, 6u);
    EXPECT_EQ(sm.activeWarps(), 48u);
}

TEST(Gpu, WarpSlotLimitWithSmallCtas)
{
    MemoryImage mem;
    GpuConfig cfg;
    Gpu gpu(cfg, &mem);

    // 2 warps per CTA: the 8-block limit binds first -> 16 warps.
    SyntheticKernel kernel(tinyKernel(200, 2, 3));
    auto &sm = gpu.sm(0);
    sm.startKernel(&kernel);
    std::uint32_t placed = 0;
    while (sm.canTakeCta()) {
        sm.assignCta(0, placed);
        ++placed;
    }
    EXPECT_EQ(placed, 8u);
    EXPECT_EQ(sm.activeWarps(), 16u);
}

TEST(Gpu, CtaThatFitsNoSmInterrupts)
{
    MemoryImage mem;
    GpuConfig cfg;
    cfg.maxWarpsPerSm = 4;
    Gpu gpu(cfg, &mem);

    SyntheticKernel kernel(tinyKernel(4, 8, 5));
    const RunResult result = gpu.runKernel(kernel);
    EXPECT_FALSE(result.completed);
    EXPECT_EQ(result.instructions, 0u);
    ASSERT_TRUE(result.interrupt.has_value());
    EXPECT_EQ(result.interrupt->code, RunErrorCode::InvalidConfig);
    EXPECT_NE(result.interrupt->detail.find("8 warps"), std::string::npos)
        << result.interrupt->detail;
}

TEST(Gpu, OneSchedulerOver130SlotsRetiresEveryInstruction)
{
    // One scheduler owns all 130 slots: its masks span three words.
    MemoryImage mem;
    GpuConfig cfg;
    cfg.maxWarpsPerSm = 130;
    cfg.schedulersPerSm = 1;
    Gpu gpu(cfg, &mem);

    // 26-warp CTAs: five fill an SM's slots.
    const std::uint32_t ctas = 2 * 5 * cfg.numSms;
    SyntheticKernel kernel(tinyKernel(ctas, 26, 4));
    auto &sm = gpu.sm(0);
    sm.startKernel(&kernel);
    for (std::uint32_t placed = 0; sm.canTakeCta(); ++placed)
        sm.assignCta(0, placed);
    EXPECT_EQ(sm.activeWarps(), 130u);

    const RunResult result = gpu.runKernel(kernel);
    EXPECT_TRUE(result.completed);
    // ctas x 26 warps x 4 iters x 3 instructions.
    EXPECT_EQ(result.instructions, std::uint64_t{ctas} * 26 * 4 * 3);
}

TEST(Gpu, MultipleKernelsAccumulateClock)
{
    MemoryImage mem;
    GpuConfig cfg;
    Gpu gpu(cfg, &mem);
    SyntheticKernel kernel(tinyKernel(4, 2, 5));

    const RunResult first = gpu.runKernel(kernel);
    const Cycles after_first = gpu.now();
    const RunResult second = gpu.runKernel(kernel);
    EXPECT_EQ(gpu.now(), after_first + second.cycles);
    EXPECT_EQ(first.instructions, second.instructions);
}

TEST(Gpu, MemoryTrafficReachesL2AndDram)
{
    MemoryImage mem;
    GpuConfig cfg;
    Gpu gpu(cfg, &mem);
    SyntheticKernel kernel(tinyKernel(16, 4, 20));
    gpu.runKernel(kernel);

    EXPECT_GT(gpu.totalL1Misses(), 0u);
    EXPECT_GT(gpu.l2().reads.count(), 0u);
    EXPECT_GT(gpu.dram().accesses.count(), 0u);
    EXPECT_GT(gpu.noc().bytesMoved.count(), 0u);
    // Streaming has no reuse: essentially everything misses.
    EXPECT_GT(gpu.totalL1Misses(), gpu.totalL1Hits());
}

TEST(Gpu, StoresAreWriteAvoid)
{
    MemoryImage mem;
    GpuConfig cfg;
    Gpu gpu(cfg, &mem);

    KernelSpec spec = tinyKernel(8, 2, 10);
    spec.phases[0].storesPerIter = 2;
    SyntheticKernel kernel(spec);
    gpu.runKernel(kernel);

    std::uint64_t stores = 0;
    for (std::uint32_t i = 0; i < gpu.numSms(); ++i)
        stores += gpu.sm(i).cache().stores.count();
    EXPECT_GT(stores, 0u);
    EXPECT_GT(gpu.l2().writes.count(), 0u);
}

TEST(SyntheticKernel, FetchIsDeterministic)
{
    SyntheticKernel kernel(tinyKernel(4, 2, 8));
    for (std::uint64_t pc = 0; pc < kernel.instructionsPerWarp(); ++pc) {
        const auto a = kernel.fetch(3, pc);
        const auto b = kernel.fetch(3, pc);
        EXPECT_EQ(a.op, b.op);
        EXPECT_EQ(a.laneAddrs, b.laneAddrs);
    }
    EXPECT_EQ(kernel.fetch(3, kernel.instructionsPerWarp()).op,
              Op::Exit);
}

TEST(SyntheticKernel, PhaseTransitionsChangeBody)
{
    KernelSpec spec = tinyKernel(1, 1, 4);
    PhaseSpec second = spec.phases[0];
    second.loadsPerIter = 0;
    second.aluPerIter = 1;
    second.iterations = 2;
    spec.phases.push_back(second);
    SyntheticKernel kernel(spec);

    // Phase 1 bodies contain loads; phase 2 bodies are pure ALU.
    EXPECT_EQ(kernel.fetch(0, 0).op, Op::Load);
    const std::uint64_t phase2_start = 4 * 3;
    EXPECT_EQ(kernel.fetch(0, phase2_start).op, Op::Alu);
    EXPECT_EQ(kernel.instructionsPerWarp(), 4u * 3 + 2);
}

TEST(SyntheticKernel, AddressesStayInRegion)
{
    KernelSpec spec = tinyKernel(8, 2, 16);
    spec.phases[0].pattern.kind = PatternKind::Irregular;
    spec.phases[0].pattern.sliceBytes = 4096;
    spec.phases[0].pattern.hotBytes = 1024;
    spec.phases[0].pattern.divergentLanes = 8;
    SyntheticKernel kernel(spec);

    const Addr base = spec.phases[0].pattern.base;
    const Addr end = base + spec.phases[0].pattern.sizeBytes;
    for (std::uint32_t warp = 0; warp < 16; ++warp) {
        for (std::uint64_t pc = 0; pc < 8; ++pc) {
            const auto instr = kernel.fetch(warp, pc);
            if (instr.op != Op::Load)
                continue;
            for (const Addr addr : instr.laneAddrs) {
                EXPECT_GE(addr, base);
                EXPECT_LT(addr, end);
            }
        }
    }
}

// ---------------------------------------------------- --sim-threads input

TEST(SimParallel, ResolveSimThreads)
{
    std::string error;

    // Explicit counts and the "auto" keyword.
    EXPECT_EQ(resolveSimThreads("1", &error), 1u);
    EXPECT_EQ(resolveSimThreads("4", &error), 4u);
    EXPECT_GE(resolveSimThreads("auto", &error), 1u);

    // Rejections carry a message and return 0.
    for (const char *bad : {"0", "-2", "four", "4x", " 4"}) {
        error.clear();
        EXPECT_EQ(resolveSimThreads(bad, &error), 0u) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }

    // Empty defers to LATTE_SIM_THREADS, defaulting to 1; an invalid
    // environment value warns and falls back instead of failing the run.
    ::unsetenv("LATTE_SIM_THREADS");
    EXPECT_EQ(resolveSimThreads("", nullptr), 1u);
    ::setenv("LATTE_SIM_THREADS", "3", 1);
    EXPECT_EQ(resolveSimThreads("", nullptr), 3u);
    ::setenv("LATTE_SIM_THREADS", "banana", 1);
    EXPECT_EQ(resolveSimThreads("", nullptr), 1u);
    ::unsetenv("LATTE_SIM_THREADS");
}
