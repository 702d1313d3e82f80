#include "compressed_cache.hh"

#include <algorithm>
#include <array>

#include "common/bit_utils.hh"
#include "common/logging.hh"
#include "metrics/profiler.hh"
#include "metrics/registry.hh"

namespace latte
{

CompressedCache::CompressedCache(const GpuConfig &cfg, SmId sm_id,
                                 CompressionEngines *engines, L2Cache *l2,
                                 MemoryImage *mem, StatGroup *parent,
                                 CacheTuning tuning)
    : StatGroup(strfmt("l1d{}", sm_id), parent),
      loads(this, "loads", "read accesses"),
      stores(this, "stores", "write accesses"),
      hits(this, "hits", "read hits"),
      misses(this, "misses", "primary read misses"),
      mergedMisses(this, "merged_misses", "secondary misses merged"),
      insertions(this, "insertions", "lines inserted"),
      evictions(this, "evictions", "lines evicted"),
      writeInvalidations(this, "write_invalidations",
                         "lines invalidated by write hits"),
      rejections(this, "rejections", "accesses refused (MSHRs full)"),
      compressedInsertions(this, "compressed_insertions",
                           "insertions stored in compressed form"),
      bdiCompressions(this, "bdi_compressions",
                      "insertions run through the BDI compressor"),
      scCompressions(this, "sc_compressions",
                     "insertions run through the SC compressor"),
      bpcCompressions(this, "bpc_compressions",
                      "insertions run through the BPC compressor"),
      scGenerationInvalidations(this, "sc_generation_invalidations",
                                "SC lines dropped at code rebuilds"),
      insertionRatio(this, "insertion_ratio",
                     "mean compression ratio of inserted lines"),
      missLatency(this, "miss_latency",
                  "observed miss service time (cycles)"),
      mshrs(cfg.l1.mshrEntries, this),
      cfg_(cfg), tuning_(tuning), smId_(static_cast<std::uint16_t>(sm_id)),
      engines_(engines), l2_(l2), mem_(mem),
      provider_(&defaultProvider_),
      domain_(cfg.l1, cfg.l1Repl, tuning.capacityBenefit, this)
{
    latte_assert(engines_ && l2_ && mem_);
}

void
CompressedCache::setModeProvider(CompressionModeProvider *provider)
{
    provider_ = provider ? provider : &defaultProvider_;
}

void
CompressedCache::setMetrics(metrics::MetricRegistry *metrics)
{
    if (!metrics) {
        hitLatencyHist_ = missLatencyHist_ = decompWaitHist_ = nullptr;
        return;
    }
    hitLatencyHist_ = &metrics->histogram("l1_hit_latency");
    missLatencyHist_ = &metrics->histogram("l1_miss_latency");
    decompWaitHist_ = &metrics->histogram("decomp_queue_wait");
}

L1AccessResult
CompressedCache::access(Cycles now, Addr addr, bool is_write)
{
    metrics::ProfileScope profile(metrics::ProfileZone::L1Access);
    processFills(now);

    const Addr line_addr = MemoryImage::lineAddr(addr);
    const std::uint32_t set = setIndexOf(line_addr);

    if (is_write) {
        ++stores;
        // Write-avoid: drop the copy instead of recompressing it.
        const std::optional<CompressorId> dropped = domain_.drop(line_addr);
        if (dropped) {
            ++writeInvalidations;
            if (tuning_.verifyRoundTrip)
                verifyLines_.erase(line_addr);
            if (tracer_) {
                TraceEvent ev =
                    makeTraceEvent(now, TraceEventKind::L1WriteInval, smId_);
                ev.arg0 = line_addr;
                ev.arg1 = set;
                ev.mode = static_cast<std::uint8_t>(*dropped);
                tracer_->record(ev);
            }
        }
        l2_->access(now, line_addr, true);
        provider_->observeAccess({now, set, dropped.has_value(), true,
                                  dropped.value_or(CompressorId::None)});
        return {dropped.has_value(), now + 1, false, false};
    }

    ++loads;
    if (const std::optional<CompressionDomain::Stored> stored =
            domain_.hit(line_addr)) {
        ++hits;
        Cycles ready = now + cfg_.l1.hitLatency;
        if (stored->encoded && tuning_.chargeDecompression) {
            Compressor *engine = engines_->get(stored->mode);
            DecompressionQueue &queue = domain_.queueFor(stored->mode);
            ready = queue.enqueue(ready, engine->decompressLatency());
            if (decompWaitHist_) {
                decompWaitHist_->record(static_cast<double>(
                    ready - (now + cfg_.l1.hitLatency)));
            }
            if (tracer_) {
                TraceEvent ev = makeTraceEvent(
                    now, TraceEventKind::DecompEnqueue, smId_);
                ev.arg0 = line_addr;
                ev.arg1 = static_cast<std::uint32_t>(queue.depth(now));
                ev.mode = static_cast<std::uint8_t>(stored->mode);
                ev.value = static_cast<double>(ready - now);
                tracer_->record(ev);
            }
        }
        if (tuning_.verifyRoundTrip && stored->mode != CompressorId::None) {
            const CompressedLine &line = verifyLines_.at(line_addr);
            std::array<std::uint8_t, kLineBytes> scratch;
            engines_->get(line.algo)->decompressInto(line, scratch);
            const auto &truth = mem_->line(line_addr);
            latte_assert(std::equal(scratch.begin(), scratch.end(),
                                    truth.begin()),
                         "round-trip mismatch at line {}", line_addr);
        }
        if (hitLatencyHist_)
            hitLatencyHist_->record(static_cast<double>(ready - now));
        if (tracer_) {
            TraceEvent ev = makeTraceEvent(now, TraceEventKind::L1Hit, smId_);
            ev.arg0 = line_addr;
            ev.arg1 = set;
            ev.mode = static_cast<std::uint8_t>(stored->mode);
            ev.value = static_cast<double>(ready - now);
            tracer_->record(ev);
        }
        provider_->observeAccess({now, set, true, false, stored->mode});
        return {true, ready, false, false};
    }

    // Miss path.
    if (mshrs.outstanding(line_addr)) {
        ++mergedMisses;
        const Cycles ready = mshrs.merge(line_addr);
        if (tracer_) {
            TraceEvent ev =
                makeTraceEvent(now, TraceEventKind::L1MissMerged, smId_);
            ev.arg0 = line_addr;
            ev.arg1 = set;
            ev.value = static_cast<double>(ready - now);
            tracer_->record(ev);
        }
        provider_->observeAccess({now, set, false, false,
                                  CompressorId::None});
        return {false, ready, true, false};
    }

    if (!mshrs.hasFree()) {
        ++mshrs.stallsFull;
        ++rejections;
        if (tracer_) {
            TraceEvent ev =
                makeTraceEvent(now, TraceEventKind::MshrFull, smId_);
            ev.arg0 = line_addr;
            ev.arg1 = set;
            tracer_->record(ev);
            ev.kind = TraceEventKind::L1Reject;
            tracer_->record(ev);
        }
        return {false, now, false, true};
    }

    ++misses;
    const L2Result res = l2_->access(now, line_addr, false);
    missLatency.sample(static_cast<double>(res.readyCycle - now));
    if (missLatencyHist_)
        missLatencyHist_->record(static_cast<double>(res.readyCycle - now));
    mshrs.allocate(line_addr, res.readyCycle);
    if (tracer_) {
        TraceEvent ev = makeTraceEvent(now, TraceEventKind::L1Miss, smId_);
        ev.arg0 = line_addr;
        ev.arg1 = set;
        ev.value = static_cast<double>(res.readyCycle - now);
        tracer_->record(ev);
        ev.kind = TraceEventKind::MshrAlloc;
        ev.arg1 = static_cast<std::uint32_t>(mshrs.inUse());
        tracer_->record(ev);
    }
    provider_->observeAccess({now, set, false, false, CompressorId::None});
    return {false, res.readyCycle, false, false};
}

void
CompressedCache::processFills(Cycles now)
{
    mshrs.retire(now, [this](Addr line_addr, Cycles fill_cycle) {
        insertLine(fill_cycle, line_addr);
    });
}

void
CompressedCache::insertLine(Cycles now, Addr line_addr)
{
    const std::uint32_t set = setIndexOf(line_addr);
    const CompressorId mode = provider_->modeForInsertion(set);
    // Line content is a pure function of the address: a fill that needs
    // no bytes reads none, so a Baseline cell materialises no line.
    std::span<const std::uint8_t> bytes;
    if (mode != CompressorId::None || provider_->readsInsertionBytes())
        bytes = mem_->line(line_addr);

    LineMeta meta = makeRawMeta(CompressorId::None);
    if (mode != CompressorId::None) {
        Compressor *engine = engines_->get(mode);
        // The simulation only needs the encoded size (admission, sampler
        // votes, sub-block accounting) — probe, don't materialise. The
        // payload is built only when round-trip verification wants it.
        if (tuning_.verifyRoundTrip) {
            metrics::ProfileScope profile(
                metrics::ProfileZone::CompressorCompress);
            CompressedLine &line = verifyLines_[line_addr];
            line = engine->compress(bytes);
            meta = line.meta();
        } else {
            metrics::ProfileScope profile(
                metrics::ProfileZone::CompressorProbe);
            meta = engine->probe(bytes);
        }
    }
    switch (mode) {
      case CompressorId::Bdi: ++bdiCompressions; break;
      case CompressorId::Sc: ++scCompressions; break;
      case CompressorId::Bpc: ++bpcCompressions; break;
      default: break;
    }

    const std::uint8_t need = domain_.fill(
        line_addr, meta, [&](Addr victim_addr, CompressorId victim_mode) {
            ++evictions;
            if (tuning_.verifyRoundTrip)
                verifyLines_.erase(victim_addr);
            if (tracer_) {
                TraceEvent ev =
                    makeTraceEvent(now, TraceEventKind::L1Evict, smId_);
                ev.arg0 = victim_addr;
                ev.arg1 = set;
                ev.mode = static_cast<std::uint8_t>(victim_mode);
                tracer_->record(ev);
            }
        });

    ++insertions;
    if (meta.encoded())
        ++compressedInsertions;
    insertionRatio.sample(meta.ratio());

    if (tracer_) {
        TraceEvent ev = makeTraceEvent(now, TraceEventKind::L1Insert, smId_);
        ev.arg0 = line_addr;
        ev.arg1 = need;
        ev.mode = static_cast<std::uint8_t>(meta.algo);
        ev.value = meta.ratio();
        tracer_->record(ev);
    }

    provider_->observeInsertion(now, set, mode, bytes);
}

void
CompressedCache::invalidateScGeneration(std::uint32_t current_generation)
{
    scGenerationInvalidations +=
        domain_.invalidateScGeneration(current_generation);
}

void
CompressedCache::invalidateSampleMismatch(
    const DuelingModeSelector &selector)
{
    domain_.invalidateSampleMismatch(
        [&selector](std::uint32_t set) {
            return selector.dedicatedIndex(set) >= 0;
        },
        selector.winner());
}

} // namespace latte
