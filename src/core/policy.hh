/**
 * @file
 * Base class for compression management policies. A policy instance is
 * bound to one SM: it sees that SM's L1 accesses and insertions, owns the
 * EP clock, manages SC code generations, and decides the compression mode
 * of inserted lines.
 */

#ifndef LATTE_CORE_POLICY_HH
#define LATTE_CORE_POLICY_HH

#include <array>
#include <string>
#include <vector>

#include "cache/compressed_cache.hh"
#include "cache/mode_provider.hh"
#include "common/config.hh"
#include "common/ep_clock.hh"
#include "sim/lt_meter.hh"
#include "trace/tracer.hh"

namespace latte
{

/** Number of CompressorId values (for per-mode arrays). */
constexpr std::size_t kNumModes = 6;

/**
 * Per-EP sample of policy state, for the time-series figures and the
 * --timeline-out export. Recorded unconditionally (it is cheap — one
 * entry per 256 L1 accesses) so results stay bit-identical whether or
 * not event tracing is enabled.
 */
struct PolicyTracePoint
{
    Cycles cycle = 0;
    double latencyTolerance = 0;
    CompressorId mode = CompressorId::None;
    std::uint64_t effectiveCapacityBytes = 0;
    /** Entries draining in this SM's decompression queues. */
    std::uint32_t decompQueueDepth = 0;
    /** Dedicated-set sampling counters, indexed by CompressorId. */
    std::array<std::uint64_t, kNumModes> samplerHits{};
    std::array<std::uint64_t, kNumModes> samplerMisses{};
    /**
     * L2-level controller state at this EP, backfilled by the driver
     * from the L2's own trace when --l2-compress=latte ran. hasL2
     * false means no compressed L2 was configured (the fields are
     * then omitted from serialization, keeping L1-only documents
     * byte-identical to before the L2 grew a compression domain).
     */
    bool hasL2 = false;
    CompressorId l2Mode = CompressorId::None;
    double l2Tolerance = 0;
};

/** Compression management policy bound to one SM. */
class Policy : public CompressionModeProvider
{
  public:
    explicit Policy(const GpuConfig &cfg)
        : cfg_(cfg), clock_(cfg.latte)
    {}

    virtual std::string name() const = 0;

    /** Attach to one SM's cache, engines and tolerance meter. */
    virtual void
    bind(CompressedCache *cache, CompressionEngines *engines,
         LatencyToleranceMeter *meter)
    {
        cache_ = cache;
        engines_ = engines;
        meter_ = meter;
    }

    /** Attach the event tracer (not owned) as SM @p sm_id. */
    void
    setTracer(Tracer *tracer, std::uint16_t sm_id)
    {
        tracer_ = tracer;
        traceSmId_ = sm_id;
    }

    /** Swap the recording target; keeps the SM id. */
    void
    redirectTracer(Tracer *tracer) override
    {
        tracer_ = tracer;
    }

    // --- CompressionModeProvider ---
    void
    observeAccess(const AccessEvent &event) override
    {
        ++modeAccesses_[static_cast<std::size_t>(currentMode())];
        onAccess(event);
        const EpClock::Events events = clock_.onAccess();
        if (events.epBoundary) {
            const Cycles now = event.now;
            const double tolerance = meter_ ? meter_->harvest() : 0.0;
            lastTolerance_ = tolerance;
            onEpBoundary(now, tolerance, events.periodBoundary);
            if (usesSc_)
                manageScCodes(now, events.periodBoundary);

            PolicyTracePoint point;
            point.cycle = now;
            point.latencyTolerance = tolerance;
            point.mode = currentMode();
            point.effectiveCapacityBytes =
                cache_ ? cache_->domain().effectiveCapacityBytes() : 0;
            point.decompQueueDepth = totalDecompDepth(now);
            annotateTracePoint(point);
            trace_.push_back(point);

            if (tracer_) {
                TraceEvent ev = makeTraceEvent(
                    now, TraceEventKind::EpBoundary, traceSmId_);
                ev.arg0 = point.effectiveCapacityBytes;
                ev.arg1 = point.decompQueueDepth;
                ev.mode = static_cast<std::uint8_t>(point.mode);
                ev.value = tolerance;
                tracer_->record(ev);
            }
        }
    }

    void
    observeInsertion(Cycles, std::uint32_t, CompressorId,
                     std::span<const std::uint8_t> data) override
    {
        if (usesSc_ && scTrainingWindow())
            engines_->sc.trainLine(data);
    }

    /** The mode follower sets currently insert with. */
    virtual CompressorId currentMode() const = 0;

    /** Accesses observed while each mode was the follower mode. */
    const std::array<std::uint64_t, kNumModes> &
    modeAccesses() const
    {
        return modeAccesses_;
    }

    /** Per-EP trace (latency tolerance, mode, effective capacity). */
    const std::vector<PolicyTracePoint> &trace() const { return trace_; }

    /** Latency tolerance measured in the most recent EP. */
    double lastTolerance() const { return lastTolerance_; }

    /** Times the winner mode changed (== ModeChange trace events). */
    virtual std::uint64_t modeChanges() const { return 0; }

    /**
     * AMAT margin between the runner-up and the winner at the most
     * recent sampler vote (0 until a vote with two eligible modes
     * happened). Larger means a more decisive vote.
     */
    virtual double lastVoteMargin() const { return 0; }

  protected:
    /** Policy-specific access hook (before EP accounting). */
    virtual void
    onAccess(const AccessEvent &)
    {}

    /** Fill policy-specific fields of a freshly recorded trace point. */
    virtual void
    annotateTracePoint(PolicyTracePoint &)
    {}

    /** Called at every EP boundary with the fresh tolerance estimate. */
    virtual void onEpBoundary(Cycles, double, bool) {}

    /** Rebuild SC codes and invalidate lines of retired generations. */
    void
    rebuildScCodes(Cycles now)
    {
        const std::uint32_t generation = engines_->sc.rebuildCodes();
        cache_->invalidateScGeneration(generation);
        if (tracer_) {
            TraceEvent ev = makeTraceEvent(
                now, TraceEventKind::ScRebuild, traceSmId_);
            ev.arg0 = generation;
            tracer_->record(ev);
        }
    }

    /**
     * True while the SC value-frequency table samples insertions: the
     * first EP of the first period and the final EP of every period
     * (Section IV-C2).
     */
    bool
    scTrainingWindow() const
    {
        return (clock_.periodIndex() == 0 && clock_.epInPeriod() == 0) ||
               clock_.inFinalEp();
    }

    /**
     * Build the first code book as soon as the first (training) EP
     * closes, then reconsider it at every period boundary, after the
     * VFT retrained during the period's final EP.
     */
    void
    manageScCodes(Cycles now, bool period_end)
    {
        if (!firstScBuildDone_) {
            rebuildScCodes(now);
            firstScBuildDone_ = true;
        } else if (period_end) {
            maybeRebuildScCodes(now);
        }
    }

    /** Entries draining across all decompression queues at @p now. */
    std::uint32_t
    totalDecompDepth(Cycles now) const
    {
        return cache_ ? static_cast<std::uint32_t>(
                            cache_->domain().decompDepth(now))
                      : 0;
    }

    /**
     * Rebuild SC codes at a period boundary only when the sampled value
     * palette has drifted from the current code book. Rebuilding retires
     * the code generation and invalidates every SC line, so doing it
     * when the palette is stable costs capacity for nothing.
     */
    void
    maybeRebuildScCodes(Cycles now)
    {
        auto &sc = engines_->sc;
        if (sc.vft().samples() < 256) {
            sc.discardVft(); // too few samples to judge drift
            return;
        }
        if (!sc.hasCodes() || sc.codeDivergenceAbove(0.3))
            rebuildScCodes(now);
        else
            sc.discardVft();
    }

    /** Rolling estimate of the miss service latency. */
    double
    estimatedMissLatency()
    {
        const auto &stat = cache_->missLatency;
        const std::uint64_t samples = stat.samples();
        const double sum = stat.sum();
        double estimate = static_cast<double>(
            cfg_.l2.minLatency + cfg_.l2.missPenaltyCycles);
        if (samples > lastMissSamples_) {
            estimate = (sum - lastMissSum_) /
                       static_cast<double>(samples - lastMissSamples_);
            lastMissSamples_ = samples;
            lastMissSum_ = sum;
            lastMissEstimate_ = estimate;
        } else if (lastMissEstimate_ > 0) {
            estimate = lastMissEstimate_;
        }
        return estimate;
    }

    const GpuConfig &cfg_;
    EpClock clock_;
    /** Set by policies that may insert SC lines: the base then trains
     *  the VFT and manages SC code books at EP boundaries. */
    bool usesSc_ = false;
    CompressedCache *cache_ = nullptr;
    CompressionEngines *engines_ = nullptr;
    LatencyToleranceMeter *meter_ = nullptr;
    Tracer *tracer_ = nullptr;
    std::uint16_t traceSmId_ = kNoTraceSm;

  private:
    bool firstScBuildDone_ = false;
    std::array<std::uint64_t, kNumModes> modeAccesses_{};
    std::vector<PolicyTracePoint> trace_;
    double lastTolerance_ = 0;
    std::uint64_t lastMissSamples_ = 0;
    double lastMissSum_ = 0;
    double lastMissEstimate_ = 0;
};

} // namespace latte

#endif // LATTE_CORE_POLICY_HH
