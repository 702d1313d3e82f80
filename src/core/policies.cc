#include "policies.hh"

#include <algorithm>
#include <cmath>

namespace latte
{

// --------------------------------------------------------------- LatteCc

LatteCcPolicy::LatteCcPolicy(const GpuConfig &cfg,
                             std::vector<CompressorId> modes,
                             bool use_tolerance)
    : Policy(cfg),
      selector_(modes, TraceEventKind::SamplerVote,
                TraceEventKind::ModeChange),
      useTolerance_(use_tolerance)
{
    usesSc_ = std::find(modes.begin(), modes.end(), CompressorId::Sc) !=
              modes.end();
}

std::string
LatteCcPolicy::name() const
{
    if (selector_.size() == 3 && selector_.candidate(2) == CompressorId::Bpc)
        return "LATTE-CC-BDI-BPC";
    return "LATTE-CC";
}

void
LatteCcPolicy::bind(CompressedCache *cache, CompressionEngines *engines,
                    LatencyToleranceMeter *meter)
{
    Policy::bind(cache, engines, meter);
    selector_.bind(cache->numSets(), cfg_.latte.dedicatedSetsPerMode,
                   cfg_.l1.hitLatency, &cache->domain(), engines);
}

bool
LatteCcPolicy::samplingActive() const
{
    // Continuous sampling until the decision stabilises, then only the
    // paper's learning window of every fourth period. Winner flips and
    // latency-tolerance shifts reset stablePeriods_, reviving full
    // sampling.
    if (stablePeriods_ < 1)
        return true;
    // Back off further on long-stable workloads: the sampling tax is
    // pure overhead while nothing changes.
    const std::uint64_t interval = stablePeriods_ >= 8 ? 16 : 4;
    return clock_.periodIndex() % interval == 0 &&
           (clock_.inLearningPhase() || clock_.inHitTailPhase());
}

void
LatteCcPolicy::onAccess(const AccessEvent &event)
{
    if (!event.isWrite && samplingActive())
        selector_.count(event.setIndex, event.hit);
}

void
LatteCcPolicy::annotateTracePoint(PolicyTracePoint &point)
{
    for (std::size_t k = 0; k < selector_.size(); ++k) {
        const auto mode = static_cast<std::size_t>(selector_.candidate(k));
        point.samplerHits[mode] = selector_.hits(k);
        point.samplerMisses[mode] = selector_.misses(k);
    }
}

void
LatteCcPolicy::onEpBoundary(Cycles now, double tolerance, bool period_end)
{
    // A large latency-tolerance shift signals a phase change: resume
    // full sampling so the decision can be revisited quickly.
    if (std::abs(tolerance - prevTolerance_) >
        std::max(4.0, prevTolerance_)) {
        stablePeriods_ = 0;
    }
    prevTolerance_ = tolerance;

    winnerChanged_ |= chooseWinner(now, tolerance);

    if (period_end) {
        if (winnerChanged_)
            stablePeriods_ = 0;
        else
            ++stablePeriods_;
        winnerChanged_ = false;
    }

    // Once the hit counters of the sampling window have been harvested
    // (the EP after the hit-tail), flush mismatched sampled lines so a
    // hot line compressed with a losing mode doesn't keep charging
    // decompression for the rest of its lifetime. Only do this in
    // hit-saturated execution: when the cache misses at any real rate,
    // resident compressed lines are capacity worth keeping, and
    // eviction recycles them naturally anyway.
    std::uint64_t window_hits = 0, window_misses = 0;
    for (std::size_t k = 0; k < selector_.size(); ++k) {
        window_hits += selector_.hits(k);
        window_misses += selector_.misses(k);
    }
    const bool hit_saturated =
        window_hits > 0 &&
        static_cast<double>(window_misses) /
                static_cast<double>(window_hits + window_misses) <
            0.02;
    if (hit_saturated && stablePeriods_ >= 1 &&
        !clock_.inLearningPhase() && !clock_.inHitTailPhase()) {
        cache_->invalidateSampleMismatch(selector_);
    }

    // Decay rather than clear the sampling counters each EP: with only
    // 4 dedicated sets per mode a single EP's counts are noisy, and a
    // decaying accumulation (~4 EP memory) smooths decisions while
    // staying responsive to phase changes.
    selector_.decay();
}

bool
LatteCcPolicy::chooseWinner(Cycles now, double tolerance)
{
    const double miss_latency = estimatedMissLatency();
    return selector_.vote(now, useTolerance_ ? tolerance : 0.0,
                          miss_latency, tracer_, traceSmId_);
}

// ----------------------------------------------------- AdaptiveHitCount

bool
AdaptiveHitCountPolicy::chooseWinner(Cycles now, double)
{
    std::uint64_t best_hits = 0;
    int best = -1;
    for (std::size_t k = 0; k < selector_.size(); ++k) {
        if (selector_.eligible(k) && selector_.hits(k) > best_hits) {
            best_hits = selector_.hits(k);
            best = static_cast<int>(k);
        }
    }
    return best >= 0 && selector_.switchTo(static_cast<std::size_t>(best),
                                           now, 0.0, tracer_, traceSmId_);
}

} // namespace latte
