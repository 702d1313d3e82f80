#include "l2cache.hh"

#include <algorithm>

#include "common/bit_utils.hh"
#include "common/logging.hh"
#include "metrics/profiler.hh"
#include "metrics/registry.hh"

namespace latte
{

L2Cache::CompressStats::CompressStats(StatGroup *parent)
    : StatGroup("compress", parent),
      insertions(this, "insertions", "lines inserted"),
      evictions(this, "evictions", "lines evicted"),
      writeInvalidations(this, "write_invalidations",
                         "compressed copies dropped by writes"),
      compressedInsertions(this, "compressed_insertions",
                           "insertions stored in compressed form"),
      bdiCompressions(this, "bdi_compressions",
                      "insertions run through the BDI compressor"),
      fpcCompressions(this, "fpc_compressions",
                      "insertions run through the FPC compressor"),
      cpackCompressions(this, "cpack_compressions",
                        "insertions run through the CPACK compressor"),
      bpcCompressions(this, "bpc_compressions",
                      "insertions run through the BPC compressor"),
      decompressions(this, "decompressions",
                     "hits decompressed through the queue"),
      insertionRatio(this, "insertion_ratio",
                     "mean compression ratio of inserted lines")
{}

L2Cache::LinkStats::LinkStats(StatGroup *parent)
    : StatGroup("link", parent),
      transfers(this, "transfers", "line fetches moved compressed"),
      bytesMoved(this, "bytes_moved",
                 "bytes transferred over the compressed link"),
      bytesSaved(this, "bytes_saved",
                 "line bytes avoided by link compression"),
      transferRatio(this, "transfer_ratio",
                    "mean line-size / transfer-size ratio")
{}

namespace
{

/** The level the L2's domain models: one tag per way when uncompressed. */
CacheLevelConfig
storedLevel(const CacheLevelConfig &l2)
{
    CacheLevelConfig level = l2;
    if (level.compress == LevelCompress::Off)
        level.tagFactor = 1;
    return level;
}

} // namespace

L2Cache::L2Cache(const GpuConfig &cfg, Interconnect *noc, DramModel *dram,
                 MemoryImage *mem, StatGroup *parent)
    : StatGroup("l2", parent),
      reads(this, "reads", "read requests"),
      writes(this, "writes", "write requests"),
      hits(this, "hits", "L2 hits"),
      misses(this, "misses", "L2 misses"),
      bankQueueDelay(this, "bank_queue_delay",
                     "average bank queueing delay (cycles)"),
      cfg_(cfg), compressing_(cfg.l2.compress != LevelCompress::Off),
      noc_(noc), dram_(dram), mem_(mem), banks_(cfg.l2.banks),
      comp_(compressing_ ? this : nullptr),
      domain_(storedLevel(cfg.l2), GpuConfig::ReplPolicy::LRU, true, &comp_)
{
    latte_assert(noc_ && dram_ && mem_);

    const bool link_on = cfg.linkCompress != CompressorId::None;
    if (compressing_ || link_on)
        engines_ = std::make_unique<CompressionEngines>(cfg);
    if (cfg.l2.compress == LevelCompress::Latte) {
        controller_ = std::make_unique<L2CompressionController>(cfg);
        controller_->bind(&domain_, engines_.get());
    }
    if (link_on) {
        link_ = std::make_unique<LinkStats>(this);
        linkEngine_ = engines_->get(cfg.linkCompress);
    }
}

L2Cache::~L2Cache() = default;

void
L2Cache::setTracer(Tracer *tracer)
{
    tracer_ = tracer;
    if (controller_)
        controller_->setTracer(tracer);
}

void
L2Cache::setMetrics(metrics::MetricRegistry *metrics)
{
    if (!metrics) {
        hitLatencyHist_ = missLatencyHist_ = decompWaitHist_ = nullptr;
        return;
    }
    hitLatencyHist_ = &metrics->histogram("l2_hit_latency");
    missLatencyHist_ = &metrics->histogram("l2_miss_latency");
    decompWaitHist_ = compressing_
                          ? &metrics->histogram("l2_decomp_queue_wait")
                          : nullptr;
}

std::uint32_t
L2Cache::bankIndex(Addr line_addr) const
{
    // The domain pins l2.lineBytes to kLineBytes: a shift, not a div.
    return static_cast<std::uint32_t>(
        (line_addr / kLineBytes) % cfg_.l2.banks);
}

Cycles
L2Cache::fetchLine(Cycles at, Addr line_addr)
{
    if (!linkEngine_)
        return dram_->access(at, cfg_.l2.lineBytes);

    // Memory-side compression: the controller encodes the line before
    // the burst, the L2 expands it after. Only transfers that actually
    // shrink (rounded up to 8 B bus beats) take the compressed path —
    // incompressible lines move raw with no added latency.
    const auto &bytes = mem_->line(line_addr);
    const LineMeta meta = linkEngine_->probe(bytes);
    std::uint32_t xfer = cfg_.l2.lineBytes;
    if (meta.encoded()) {
        xfer = std::min(
            cfg_.l2.lineBytes,
            static_cast<std::uint32_t>(
                divCeil(std::max<std::uint32_t>(meta.sizeBytes(), 1),
                        8u) * 8u));
    }
    if (xfer >= cfg_.l2.lineBytes)
        return dram_->access(at, cfg_.l2.lineBytes);

    const Cycles done =
        dram_->access(at + linkEngine_->compressLatency(), xfer) +
        linkEngine_->decompressLatency();
    ++link_->transfers;
    link_->bytesMoved += xfer;
    link_->bytesSaved += cfg_.l2.lineBytes - xfer;
    link_->transferRatio.sample(
        static_cast<double>(cfg_.l2.lineBytes) /
        static_cast<double>(xfer));
    if (tracer_) {
        TraceEvent ev =
            makeTraceEvent(at, TraceEventKind::LinkCompress);
        ev.arg0 = line_addr;
        ev.arg1 = xfer;
        ev.value = meta.ratio();
        tracer_->record(ev);
    }
    return done;
}

void
L2Cache::insertLine(Cycles now, Addr line_addr, std::uint32_t set,
                    CompressorId mode)
{
    LineMeta meta = makeRawMeta(CompressorId::None);
    if (mode != CompressorId::None) {
        metrics::ProfileScope profile(
            metrics::ProfileZone::CompressorProbe);
        meta = engines_->get(mode)->probe(mem_->line(line_addr));
    }
    switch (mode) {
      case CompressorId::Bdi: ++comp_.bdiCompressions; break;
      case CompressorId::Fpc: ++comp_.fpcCompressions; break;
      case CompressorId::CpackZ: ++comp_.cpackCompressions; break;
      case CompressorId::Bpc: ++comp_.bpcCompressions; break;
      default: break;
    }

    // Only a compressing L2 traces its fills and evictions.
    Tracer *tracer = compressing_ ? tracer_ : nullptr;
    const std::uint8_t need = domain_.fill(
        line_addr, meta, [&](Addr victim_addr, CompressorId victim_mode) {
            ++comp_.evictions;
            if (tracer) {
                TraceEvent ev =
                    makeTraceEvent(now, TraceEventKind::L2Evict);
                ev.arg0 = victim_addr;
                ev.arg1 = set;
                ev.mode = static_cast<std::uint8_t>(victim_mode);
                tracer->record(ev);
            }
        });

    ++comp_.insertions;
    if (meta.encoded())
        ++comp_.compressedInsertions;
    comp_.insertionRatio.sample(meta.ratio());
    if (tracer) {
        TraceEvent ev = makeTraceEvent(now, TraceEventKind::L2Insert);
        ev.arg0 = line_addr;
        ev.arg1 = need;
        ev.mode = static_cast<std::uint8_t>(meta.algo);
        ev.value = meta.ratio();
        tracer->record(ev);
    }
}

L2Result
L2Cache::access(Cycles now, Addr line_addr, bool is_write)
{
    metrics::ProfileScope profile(metrics::ProfileZone::L2Access);
    if (is_write)
        ++writes;
    else
        ++reads;

    // Request traverses the network to the L2 partition.
    const Cycles at_l2 = noc_->transfer(now, is_write ? 128 + 8 : 8,
                                        Interconnect::Channel::Request);

    // Bank arbitration (the service time and the queueing delay are
    // whole cycles by construction, exact in the booking's double).
    const std::uint32_t bank = bankIndex(line_addr);
    const auto queue = static_cast<Cycles>(banks_[bank].book(
        static_cast<double>(at_l2),
        static_cast<double>(cfg_.l2.bankServiceCycles)));
    bankQueueDelay.sample(static_cast<double>(queue));

    // Remaining pipeline latency so an unloaded read hit observed from
    // the SM costs exactly l2.minLatency.
    const Cycles pipeline =
        cfg_.l2.minLatency - 2 * noc_->traversalLatency();
    const Cycles data_at_l2 = at_l2 + queue + pipeline;

    const std::uint32_t set = domain_.setIndexOf(line_addr);
    Cycles data_ready = data_at_l2;
    bool was_hit = false;
    if (is_write && compressing_) {
        // Write-avoid at the L2: drop the compressed copy and restore
        // it raw, so stores never recompress in place.
        const std::optional<CompressorId> dropped = domain_.drop(line_addr);
        was_hit = dropped.has_value();
        if (dropped) {
            ++comp_.writeInvalidations;
            if (tracer_) {
                TraceEvent ev = makeTraceEvent(
                    now, TraceEventKind::L2WriteInval);
                ev.arg0 = line_addr;
                ev.arg1 = set;
                ev.mode = static_cast<std::uint8_t>(*dropped);
                tracer_->record(ev);
            }
            insertLine(now, line_addr, set, CompressorId::None);
        }
    } else {
        const std::optional<CompressionDomain::Stored> stored =
            domain_.hit(line_addr);
        was_hit = stored.has_value();
        if (stored && stored->encoded) {
            Compressor *engine = engines_->get(stored->mode);
            DecompressionQueue &queue = domain_.queueFor(stored->mode);
            data_ready =
                queue.enqueue(data_at_l2, engine->decompressLatency());
            ++comp_.decompressions;
            if (decompWaitHist_) {
                decompWaitHist_->record(
                    static_cast<double>(data_ready - data_at_l2));
            }
            if (tracer_) {
                TraceEvent ev = makeTraceEvent(
                    now, TraceEventKind::L2DecompEnqueue);
                ev.arg0 = line_addr;
                ev.arg1 =
                    static_cast<std::uint32_t>(queue.depth(data_at_l2));
                ev.mode = static_cast<std::uint8_t>(stored->mode);
                ev.value = static_cast<double>(data_ready - data_at_l2);
                tracer_->record(ev);
            }
        }
    }

    if (was_hit) {
        ++hits;
        if (tracer_) {
            TraceEvent ev = makeTraceEvent(now, TraceEventKind::L2Hit);
            ev.arg0 = line_addr;
            ev.arg1 = bank;
            ev.value = static_cast<double>(
                compressing_ ? data_ready - data_at_l2 : queue);
            tracer_->record(ev);
        }
    } else {
        ++misses;
        data_ready = fetchLine(data_at_l2, line_addr);
        // Stores fill raw (the write-avoid analogue); loads fill with
        // the configured mode — static:<algo> or the latte winner. An
        // uncompressed L2 stores every line raw.
        CompressorId mode = CompressorId::None;
        if (compressing_ && !is_write) {
            mode = controller_ ? controller_->modeForInsertion(set)
                               : cfg_.l2.staticAlgo;
        }
        insertLine(now, line_addr, set, mode);
        if (tracer_) {
            TraceEvent ev = makeTraceEvent(now, TraceEventKind::L2Miss);
            ev.arg0 = line_addr;
            ev.arg1 = bank;
            ev.value = static_cast<double>(data_ready - now);
            tracer_->record(ev);
        }
    }

    if (controller_) {
        // The controller's latency signal spans issue to data-at-L2, so
        // its per-EP hit mean lines up with the l2.minLatency baseline
        // its AMAT votes are computed against.
        controller_->observeAccess(now, set, was_hit, is_write,
                                   static_cast<double>(data_ready - now));
    }

    // Response traverses the network back (data payload for reads).
    const Cycles ready =
        noc_->transfer(data_ready, is_write ? 8 : 128 + 8,
                       Interconnect::Channel::Reply);

    // Observational mirror into the shared metric histograms.
    metrics::LatencyHistogram *hist =
        was_hit ? hitLatencyHist_ : missLatencyHist_;
    if (hist)
        hist->record(static_cast<double>(ready - now));
    return {was_hit, ready};
}

} // namespace latte
