#include "dueling_selector.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace latte
{

namespace
{

/** A challenger must beat the incumbent's AMAT by 2% (sampling noise). */
constexpr double kHysteresis = 0.98;

/** Miss-rate cut a challenger adding exposed hit latency must show. */
constexpr double kCapacityGuardGain = 0.02;

} // namespace

DuelingModeSelector::DuelingModeSelector(
    std::span<const CompressorId> candidates, TraceEventKind vote_kind,
    TraceEventKind change_kind)
    : size_(candidates.size()), voteKind_(vote_kind),
      changeKind_(change_kind)
{
    latte_assert(!candidates.empty() && candidates[0] == CompressorId::None,
                 "candidate 0 must be the uncompressed baseline");
    latte_assert(size_ <= candidates_.size(), "too many candidate modes");
    std::copy(candidates.begin(), candidates.end(), candidates_.begin());
}

void
DuelingModeSelector::bind(std::uint32_t num_sets,
                          std::uint32_t dedicated_per_mode,
                          Cycles hit_latency,
                          const CompressionDomain *domain,
                          CompressionEngines *engines)
{
    latte_assert(domain && engines);
    latte_assert(num_sets >= dedicated_per_mode * size_,
                 "cache too small for the dedicated sample sets");
    stride_ = num_sets / dedicated_per_mode;
    hitLatency_ = static_cast<double>(hit_latency);
    domain_ = domain;
    engines_ = engines;
}

double
DuelingModeSelector::effectiveHitLatency(std::size_t k, Cycles now) const
{
    // Eq. 3: base hit latency, plus the decompression pipeline and the
    // expected decompression-queue wait for a compressed mode.
    double lat = hitLatency_;
    const CompressorId mode = candidates_[k];
    if (mode != CompressorId::None) {
        lat += static_cast<double>(engines_->get(mode)->decompressLatency());
        lat += static_cast<double>(domain_->queueFor(mode).expectedPos(now)) +
               1.0;
    }
    return lat;
}

bool
DuelingModeSelector::vote(Cycles now, double tolerance,
                          double miss_latency, Tracer *tracer,
                          std::uint16_t sm)
{
    constexpr double kUnsampled = std::numeric_limits<double>::max();
    std::array<double, kNumCompressorIds> amat;
    amat.fill(kUnsampled);
    std::array<double, kNumCompressorIds> exposed{};
    std::array<double, kNumCompressorIds> miss_rate{};
    int best = -1;
    for (std::size_t k = 0; k < size_; ++k) {
        if (!eligible(k))
            continue;
        // AMAT_GPU (Eq. 2): hits only cost what tolerance cannot hide.
        exposed[k] = std::max(effectiveHitLatency(k, now) - tolerance, 0.0);
        miss_rate[k] = static_cast<double>(misses_[k]) /
                       static_cast<double>(hits_[k] + misses_[k]);
        amat[k] = exposed[k] + miss_rate[k] * (miss_latency - exposed[k]);
        if (tracer) {
            TraceEvent ev = makeTraceEvent(now, voteKind_, sm);
            ev.arg0 = hits_[k];
            ev.arg1 = static_cast<std::uint32_t>(misses_[k]);
            ev.mode = static_cast<std::uint8_t>(candidates_[k]);
            ev.value = amat[k];
            tracer->record(ev);
        }
        if (best < 0 || amat[k] < amat[best])
            best = static_cast<int>(k);
    }
    if (best < 0)
        return false;
    const auto challenger = static_cast<std::size_t>(best);
    double runner_up = kUnsampled;
    for (std::size_t k = 0; k < size_; ++k) {
        if (k != challenger)
            runner_up = std::min(runner_up, amat[k]);
    }
    if (runner_up != kUnsampled)
        voteMargin_ = runner_up - amat[challenger];

    // An incumbent with too few samples keeps kUnsampled AMAT and zero
    // exposed latency and miss rate: any challenger passes the
    // hysteresis, and the capacity guard stops one that adds latency.
    const std::size_t incumbent = winner_;
    if (challenger == incumbent ||
        amat[challenger] >= amat[incumbent] * kHysteresis) {
        return false;
    }
    // A challenger that adds exposed hit latency must show a real
    // capacity benefit; in hit-saturated windows a burst of a few
    // misses in the incumbent's sets would otherwise flip the mode and
    // leave long-lived slow lines behind.
    if (exposed[challenger] > exposed[incumbent] &&
        miss_rate[incumbent] - miss_rate[challenger] < kCapacityGuardGain) {
        return false;
    }
    // Debounce: a challenger's first win only makes it pending; its
    // next win commits, even if the incumbent won (or a guard vetoed)
    // the EPs in between. A different challenger restarts the count.
    if (pending_ != challenger) {
        pending_ = challenger;
        return false;
    }
    return switchTo(challenger, now, amat[challenger], tracer, sm);
}

bool
DuelingModeSelector::switchTo(std::size_t k, Cycles now, double amat,
                              Tracer *tracer, std::uint16_t sm)
{
    if (k == winner_)
        return false;
    winner_ = k;
    ++modeChanges_;
    if (tracer) {
        TraceEvent ev = makeTraceEvent(now, changeKind_, sm);
        ev.mode = static_cast<std::uint8_t>(candidates_[k]);
        ev.value = amat;
        tracer->record(ev);
    }
    return true;
}

} // namespace latte
