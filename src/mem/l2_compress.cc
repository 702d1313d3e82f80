#include "l2_compress.hh"

#include <algorithm>

namespace latte
{

namespace
{

/** SC is not a candidate below the L1 (see the file comment). */
constexpr CompressorId kL2Candidates[] = {
    CompressorId::None, CompressorId::Bdi, CompressorId::Bpc};

} // namespace

L2CompressionController::L2CompressionController(const GpuConfig &cfg)
    : cfg_(cfg), clock_(cfg.latte),
      selector_(kL2Candidates, TraceEventKind::L2SamplerVote,
                TraceEventKind::L2ModeChange)
{}

void
L2CompressionController::bind(CompressionDomain *domain,
                              CompressionEngines *engines)
{
    selector_.bind(domain->numSets(), cfg_.latte.dedicatedSetsPerMode,
                   cfg_.l2.minLatency, domain, engines);
}

void
L2CompressionController::observeAccess(Cycles now,
                                       std::uint32_t set_index, bool hit,
                                       bool is_write,
                                       double service_cycles)
{
    if (!is_write) {
        selector_.count(set_index, hit);
        if (hit) {
            hitLatSum_ += service_cycles;
            ++hitLatN_;
        } else {
            missLatSum_ += service_cycles;
            ++missLatN_;
        }
    }
    if (clock_.onAccess().epBoundary)
        onEpBoundary(now);
}

void
L2CompressionController::onEpBoundary(Cycles now)
{
    const double hit_mean =
        hitLatN_ ? hitLatSum_ / static_cast<double>(hitLatN_)
                 : static_cast<double>(cfg_.l2.minLatency);
    double miss_mean;
    if (missLatN_) {
        miss_mean = missLatSum_ / static_cast<double>(missLatN_);
        lastMissEstimate_ = miss_mean;
    } else if (lastMissEstimate_ > 0) {
        miss_mean = lastMissEstimate_;
    } else {
        miss_mean = static_cast<double>(cfg_.dramMinLatency +
                                        cfg_.l2.missPenaltyCycles);
    }
    const std::uint64_t reads = hitLatN_ + missLatN_;
    const double miss_rate =
        reads ? static_cast<double>(missLatN_) /
                    static_cast<double>(reads)
              : 0.0;
    // The L2 analogue of the SM-side meter: the average slack a miss's
    // service leaves over a hit, weighted by how often it is exercised.
    // A miss-dominated EP tolerates deep decompression; a hit-dominated
    // one does not.
    const double tolerance =
        std::max(0.0, miss_mean - hit_mean) * miss_rate;
    lastTolerance_ = tolerance;

    selector_.vote(now, tolerance, miss_mean, tracer_, kNoTraceSm);

    trace_.push_back({now, tolerance, selector_.winner()});
    if (tracer_) {
        TraceEvent ev =
            makeTraceEvent(now, TraceEventKind::L2EpBoundary);
        ev.mode = static_cast<std::uint8_t>(selector_.winner());
        ev.value = tolerance;
        tracer_->record(ev);
    }

    selector_.decay();
    hitLatSum_ = 0;
    hitLatN_ = 0;
    missLatSum_ = 0;
    missLatN_ = 0;
}

} // namespace latte
