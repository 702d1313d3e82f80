/**
 * @file
 * Unified L2 cache (Table II: 768 KB, 128 B lines, 8-way, 12 banks).
 * Timing-only: hit/miss state is tracked per line, data comes from the
 * functional MemoryImage. Bank conflicts add queueing delay; misses go
 * to the DRAM model.
 *
 * The tag state lives in a CompressionDomain (the level-generic
 * machinery the compressed L1 uses) in every mode, so the L2 has one
 * lookup, fill, LRU and timing path. With --l2-compress=off the domain
 * has one tag per way and stores every line raw: a plain LRU cache. With
 * static:<algo> or latte, read misses fill compressed, hits to
 * compressed lines pay the decompression queue, stores drop the
 * compressed copy and refill it raw (write-avoid), and the mode is
 * either fixed or chosen per EP by the L2CompressionController. With
 * --link-compress, L2 miss fetches move compressed bytes over the
 * L2<->DRAM channel instead of full lines.
 */

#ifndef LATTE_MEM_L2CACHE_HH
#define LATTE_MEM_L2CACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "compress/compression_domain.hh"
#include "compress/engines.hh"
#include "dram.hh"
#include "interconnect.hh"
#include "l2_compress.hh"
#include "memory_image.hh"
#include "trace/tracer.hh"

namespace latte
{

namespace metrics
{
class LatencyHistogram;
class MetricRegistry;
} // namespace metrics

/** Result of an L2 lookup. */
struct L2Result
{
    bool hit = false;
    /** Cycle the requested line is available back at the requesting SM. */
    Cycles readyCycle = 0;
};

/** Banked, set-associative, LRU, timing-only cache. */
class L2Cache : public StatGroup
{
  public:
    L2Cache(const GpuConfig &cfg, Interconnect *noc, DramModel *dram,
            MemoryImage *mem, StatGroup *parent);
    ~L2Cache();

    /**
     * Service an L1 miss (or write-through) for the line at @p line_addr,
     * leaving the requesting SM at @p now.
     */
    L2Result access(Cycles now, Addr line_addr, bool is_write);

    /** Attach the event tracer (not owned; nullptr disables tracing). */
    void setTracer(Tracer *tracer);

    /**
     * Attach the metric registry (not owned; nullptr detaches). Mirrors
     * the L2-side service latencies into the shared histograms; purely
     * observational, never feeds back into timing.
     */
    void setMetrics(metrics::MetricRegistry *metrics);

    /** The compressed-L2 domain; nullptr when --l2-compress=off. */
    const CompressionDomain *domain() const
    {
        return compressing_ ? &domain_ : nullptr;
    }

    /** The latte controller; nullptr unless --l2-compress=latte. */
    const L2CompressionController *controller() const
    {
        return controller_.get();
    }

    Counter reads;
    Counter writes;
    Counter hits;
    Counter misses;
    Average bankQueueDelay;

    /** Compressed-L2 stats; in the stat tree only when compressing. */
    struct CompressStats : public StatGroup
    {
        explicit CompressStats(StatGroup *parent);
        Counter insertions;
        Counter evictions;
        Counter writeInvalidations;
        Counter compressedInsertions;
        Counter bdiCompressions;
        Counter fpcCompressions;
        Counter cpackCompressions;
        Counter bpcCompressions;
        Counter decompressions;
        Average insertionRatio;
    };

    /** Link-compression stats; constructed only when the link is on. */
    struct LinkStats : public StatGroup
    {
        explicit LinkStats(StatGroup *parent);
        Counter transfers;           //!< compressed line fetches
        Counter bytesMoved;          //!< bytes actually transferred
        Counter bytesSaved;          //!< line bytes avoided
        Average transferRatio;       //!< mean line/transfer size ratio
    };

    /** The compressed-L2 stats; nullptr when --l2-compress=off. */
    const CompressStats *compressStats() const
    {
        return compressing_ ? &comp_ : nullptr;
    }
    const LinkStats *linkStats() const { return link_.get(); }

  private:
    std::uint32_t bankIndex(Addr line_addr) const;
    /** Fetch @p line_addr from DRAM (compressed link when enabled). */
    Cycles fetchLine(Cycles at, Addr line_addr);
    /** Insert @p line_addr into the domain, stored with @p mode. */
    void insertLine(Cycles now, Addr line_addr, std::uint32_t set,
                    CompressorId mode);

    const GpuConfig &cfg_;
    /** --l2-compress != off: fills may compress, and are reported. */
    const bool compressing_;
    Interconnect *noc_;
    DramModel *dram_;
    MemoryImage *mem_;
    Tracer *tracer_ = nullptr;
    metrics::LatencyHistogram *hitLatencyHist_ = nullptr;
    metrics::LatencyHistogram *missLatencyHist_ = nullptr;
    metrics::LatencyHistogram *decompWaitHist_ = nullptr;

    std::vector<SerialResource> banks_;   //!< one per bank

    /** Allocated only when the level or the link compresses. */
    std::unique_ptr<CompressionEngines> engines_;
    CompressStats comp_;
    CompressionDomain domain_;
    std::unique_ptr<L2CompressionController> controller_;
    std::unique_ptr<LinkStats> link_;
    Compressor *linkEngine_ = nullptr;
};

} // namespace latte

#endif // LATTE_MEM_L2CACHE_HH
