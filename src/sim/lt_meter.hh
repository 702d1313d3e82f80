/**
 * @file
 * Latency-tolerance estimation (Section III-B2). The meter accumulates,
 * per scheduler, the number of ready warps and the length of consecutive
 * issue runs from the same warp (GTO "greedy runs"). The degree of
 * latency tolerance is the number of cycles a stalled warp's added
 * latency can be hidden: the number of *other* ready warps times the
 * average run length the scheduler spends on each of them.
 *
 * (The paper's Eq. (4) prints a division; the product is the physically
 * meaningful form for a greedy scheduler and reduces to "number of
 * available warps" for round-robin where run length is 1 — exactly the
 * behaviour the prose describes. See DESIGN.md.)
 */

#ifndef LATTE_SIM_LT_METER_HH
#define LATTE_SIM_LT_METER_HH

#include <algorithm>
#include <cstdint>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace latte
{

/** Windowed latency-tolerance estimator for one SM. */
class LatencyToleranceMeter
{
  public:
    /** Account @p cycles cycles during which @p ready warps could issue. */
    void
    accumulate(std::uint64_t ready, std::uint64_t cycles = 1)
    {
        readySum_ += ready * cycles;
        cycleCount_ += cycles;
    }

    /** Note an issue from @p warp on @p scheduler. */
    void
    noteIssue(std::uint32_t scheduler, std::uint32_t warp)
    {
        latte_assert(scheduler < kMaxSchedulers);
        ++issues_;
        if (!runValid_[scheduler] || lastWarp_[scheduler] != warp) {
            ++schedules_;
            lastWarp_[scheduler] = warp;
            runValid_[scheduler] = true;
        }
    }

    /** Average warps ready per sampled cycle. */
    double
    avgReadyWarps() const
    {
        return cycleCount_ ? static_cast<double>(readySum_) /
                                 static_cast<double>(cycleCount_)
                           : 0.0;
    }

    /** Average consecutive issues per scheduled warp. */
    double
    avgRunLength() const
    {
        return schedules_ ? static_cast<double>(issues_) /
                                static_cast<double>(schedules_)
                          : 0.0;
    }

    /** Latency tolerance in cycles for the current window. */
    double
    latencyTolerance() const
    {
        const double others = std::max(avgReadyWarps() - 1.0, 0.0);
        return others * std::max(avgRunLength(), 1.0);
    }

    /** Close the window: return the tolerance and start a new window. */
    double
    harvest()
    {
        const double tolerance = latencyTolerance();
        readySum_ = 0;
        cycleCount_ = 0;
        issues_ = 0;
        schedules_ = 0;
        // Keep lastWarp_ so a run spanning the boundary counts once.
        return tolerance;
    }

    std::uint64_t windowCycles() const { return cycleCount_; }

  private:
    static constexpr std::uint32_t kMaxSchedulers =
        GpuConfig::kMaxSchedulersPerSm;

    std::uint64_t readySum_ = 0;
    std::uint64_t cycleCount_ = 0;
    std::uint64_t issues_ = 0;
    std::uint64_t schedules_ = 0;
    std::uint32_t lastWarp_[kMaxSchedulers] = {};
    bool runValid_[kMaxSchedulers] = {};
};

} // namespace latte

#endif // LATTE_SIM_LT_METER_HH
