/**
 * @file
 * The compressed L1 data cache (Section IV-A). The organisation follows
 * the paper: the tag array is provisioned with 4x the baseline tags and
 * compressed data is stored in 32 B sub-blocks, so a set that would hold
 * four 128 B lines can hold up to sixteen sufficiently-compressed lines.
 * Lines are (de)compressed with real engines on real bytes; hits to
 * compressed lines pay the decompression-queue latency of Eq. (3).
 *
 * The cache is write-avoid (Section IV-C3): writes are forwarded to the
 * L2 and invalidate any cached copy, so recompression never forces
 * evictions on the store path.
 */

#ifndef LATTE_CACHE_COMPRESSED_CACHE_HH
#define LATTE_CACHE_COMPRESSED_CACHE_HH

#include <cstdint>
#include <unordered_map>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "compress/compression_domain.hh"
#include "compress/engines.hh"
#include "mem/dueling_selector.hh"
#include "mem/l2cache.hh"
#include "mem/memory_image.hh"
#include "mem/mshr.hh"
#include "mode_provider.hh"
#include "trace/tracer.hh"

namespace latte
{

namespace metrics
{
class LatencyHistogram;
class MetricRegistry;
} // namespace metrics

/** Experiment knobs used by the motivation studies (Figures 3 and 4). */
struct CacheTuning
{
    /**
     * When false, compressed lines still occupy a full line's worth of
     * sub-blocks: isolates the decompression-latency penalty (Figure 4).
     */
    bool capacityBenefit = true;
    /**
     * When false, hits to compressed lines cost the plain hit latency:
     * isolates the capacity benefit (Figure 3).
     */
    bool chargeDecompression = true;
    /**
     * Store compressed payloads and check the round trip against the
     * functional memory image on every hit (used by integration tests).
     */
    bool verifyRoundTrip = false;
};

/** Outcome of an L1 access as seen by the load/store unit. */
struct L1AccessResult
{
    bool hit = false;
    /** Cycle the data (or write ack) is available to the warp. */
    Cycles readyCycle = 0;
    /** Secondary miss merged into an outstanding MSHR. */
    bool merged = false;
    /** Resource stall (MSHR full): the access must be retried. */
    bool rejected = false;
};

/** Per-SM compressed L1 data cache. */
class CompressedCache : public StatGroup
{
  public:
    CompressedCache(const GpuConfig &cfg, SmId sm_id,
                    CompressionEngines *engines, L2Cache *l2,
                    MemoryImage *mem, StatGroup *parent,
                    CacheTuning tuning = {});

    /** Install the compression management policy (not owned). */
    void setModeProvider(CompressionModeProvider *provider);

    /** Attach the event tracer (not owned; nullptr disables tracing). */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

    /**
     * Attach the metric registry (not owned; nullptr detaches). The
     * cache resolves its latency histograms once here, so the access
     * path pays one null check per sample, and all SMs of a run share
     * the same histograms.
     */
    void setMetrics(metrics::MetricRegistry *metrics);

    /** Perform a (coalesced) line access. */
    L1AccessResult access(Cycles now, Addr addr, bool is_write);

    /**
     * Retire the MSHRs whose fills completed by @p now, inserting their
     * lines in allocation order, each at its own fill cycle.
     */
    void processFills(Cycles now);

    // --- Geometry (delegated to the compression domain) ---
    std::uint32_t numSets() const { return domain_.numSets(); }
    std::uint32_t
    setIndexOf(Addr addr) const
    {
        return domain_.setIndexOf(addr);
    }

    // --- Introspection for the policies and experiments ---
    /**
     * The tag/sub-block store and decompression queues: occupancy,
     * effective capacity (Figure 16) and queue stats are read here.
     */
    const CompressionDomain &domain() const { return domain_; }

    /** Invalidate SC lines not encoded with @p current_generation. */
    void invalidateScGeneration(std::uint32_t current_generation);

    /**
     * Drop compressed lines left in @p selector's dedicated sets that
     * are neither uncompressed nor in its winner mode. Called by
     * adaptive policies when sampling deactivates so stale sampled
     * lines stop paying decompression latency on every hit.
     */
    void invalidateSampleMismatch(const DuelingModeSelector &selector);

    // --- Statistics ---
    Counter loads;
    Counter stores;
    Counter hits;
    Counter misses;          //!< primary misses (== insertions attempted)
    Counter mergedMisses;    //!< secondary misses folded into an MSHR
    Counter insertions;
    Counter evictions;
    Counter writeInvalidations;
    Counter rejections;      //!< accesses refused because the MSHRs were full
    Counter compressedInsertions;
    Counter bdiCompressions;     //!< insertions compressed with BDI
    Counter scCompressions;      //!< insertions compressed with SC
    Counter bpcCompressions;     //!< insertions compressed with BPC
    Counter scGenerationInvalidations;
    Average insertionRatio;  //!< compression ratio of inserted lines
    Average missLatency;     //!< observed miss service time (cycles)
    MshrFile mshrs;

  private:
    /**
     * Insert one completed fill: pick the set's mode, size the line
     * (one probe, or a full compress under verifyRoundTrip), have
     * the domain evict until it fits and store it, and report it to the
     * mode provider.
     */
    void insertLine(Cycles now, Addr line_addr);

    const GpuConfig &cfg_;
    CacheTuning tuning_;
    std::uint16_t smId_;
    Tracer *tracer_ = nullptr;
    metrics::LatencyHistogram *hitLatencyHist_ = nullptr;
    metrics::LatencyHistogram *missLatencyHist_ = nullptr;
    metrics::LatencyHistogram *decompWaitHist_ = nullptr;
    CompressionEngines *engines_;
    L2Cache *l2_;
    MemoryImage *mem_;
    CompressionModeProvider *provider_;
    UncompressedProvider defaultProvider_;

    CompressionDomain domain_;
    /**
     * Under verifyRoundTrip only: the encoded form of each line filled
     * compressed, by line address, which its hits decode and check
     * against the memory image. Evictions and write drops erase it; a
     * refill overwrites what the bulk invalidations leave.
     */
    std::unordered_map<Addr, CompressedLine> verifyLines_;
};

} // namespace latte

#endif // LATTE_CACHE_COMPRESSED_CACHE_HH
