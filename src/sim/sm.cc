#include "sm.hh"

#include <algorithm>

#include "common/logging.hh"
#include "metrics/profiler.hh"

namespace latte
{

StreamingMultiprocessor::StreamingMultiprocessor(
        const GpuConfig &cfg, SmId sm_id, L2Cache *l2, MemoryImage *mem,
        StatGroup *parent, CacheTuning tuning)
    : StatGroup(strfmt("sm{}", sm_id), parent),
      instructions(this, "instructions", "warp instructions issued"),
      aluInstructions(this, "alu_instructions", "ALU/SFU instructions"),
      memInstructions(this, "mem_instructions", "loads and stores"),
      ctasCompleted(this, "ctas_completed", "thread blocks retired"),
      accessesPerLoad(this, "accesses_per_load",
                      "coalesced line accesses per load"),
      cfg_(cfg), smId_(sm_id), mem_(mem),
      engines_(cfg),
      cache_(cfg, sm_id, &engines_, l2, mem, this, tuning),
      lsu_(this),
      warps_(cfg.maxWarpsPerSm)
{
    const std::uint32_t n = cfg.schedulersPerSm;
    for (std::uint32_t s = 0; s < n; ++s)
        schedulers_.emplace_back(cfg.schedPolicy, s,
                                 (cfg.maxWarpsPerSm + n - 1 - s) / n);
    for (std::uint32_t w = 0; w < cfg.maxWarpsPerSm; ++w)
        warps_[w].slot = w;
}

void
StreamingMultiprocessor::startKernel(KernelProgram *program)
{
    latte_assert(program != nullptr);
    program_ = program;
    freeSlots_.clear();
    for (std::uint32_t w = 0; w < cfg_.maxWarpsPerSm; ++w) {
        warps_[w] = Warp{};
        warps_[w].slot = w;
        freeSlots_.push_back(cfg_.maxWarpsPerSm - 1 - w);
    }
    for (WarpScheduler &sched : schedulers_)
        sched.clear();
    ctaRemaining_.clear();
    residentCtas_ = 0;
    lsu_.clear();
}

bool
StreamingMultiprocessor::canTakeCta() const
{
    return program_ != nullptr &&
           residentCtas_ < cfg_.maxBlocksPerSm &&
           freeSlots_.size() >= program_->warpsPerCta();
}

void
StreamingMultiprocessor::assignCta(Cycles now, std::uint32_t cta_index)
{
    latte_assert(canTakeCta());
    const std::uint32_t warps_per_cta = program_->warpsPerCta();
    const auto handle = static_cast<std::uint32_t>(ctaRemaining_.size());
    ctaRemaining_.push_back(warps_per_cta);
    ++residentCtas_;

    for (std::uint32_t i = 0; i < warps_per_cta; ++i) {
        const std::uint32_t slot = freeSlots_.back();
        freeSlots_.pop_back();
        Warp &warp = warps_[slot];
        warp = Warp{};
        warp.slot = slot;
        warp.globalWarpId = cta_index * warps_per_cta + i;
        warp.ctaSlot = handle;
        warp.state = WarpState::Active;
        schedulers_[slot % cfg_.schedulersPerSm].assign(
            slot / cfg_.schedulersPerSm, ageClock_++, now + 1);
    }
}

bool
StreamingMultiprocessor::drained() const
{
    if (lsu_.busy())
        return false;
    for (const Warp &warp : warps_) {
        if (warp.state == WarpState::Active ||
            warp.state == WarpState::WaitMem) {
            return false;
        }
    }
    return true;
}

std::uint32_t
StreamingMultiprocessor::activeWarps() const
{
    std::uint32_t n = 0;
    for (const Warp &warp : warps_) {
        if (warp.state == WarpState::Active ||
            warp.state == WarpState::WaitMem) {
            ++n;
        }
    }
    return n;
}

void
StreamingMultiprocessor::noteIdle(std::uint64_t cycles)
{
    meter_.accumulate(0, cycles * schedulers_.size());
}

Cycles
StreamingMultiprocessor::tick(Cycles now)
{
    wake(lsu_.tick(now, cache_, warps_));
    return issueAndNext(now);
}

void
StreamingMultiprocessor::wake(std::optional<LoadWake> load)
{
    if (load) {
        schedulers_[load->slot % cfg_.schedulersPerSm].setWake(
            load->slot / cfg_.schedulersPerSm, load->readyAt);
    }
}

Cycles
StreamingMultiprocessor::issueAndNext(Cycles now)
{
    // A warp that issues wakes at now + 1 or later, so the SM's next
    // tick is now + 1 after any issue and otherwise the earliest of the
    // schedulers' pending wakes and the LSU's next event.
    bool issued = false;
    Cycles next = kNoCycle;
    for (WarpScheduler &sched : schedulers_) {
        const WarpScheduler::Scan scan = sched.scan(now);
        meter_.accumulate(scan.ready);
        next = std::min(next, scan.nextWake);
        if (scan.pick < 0)
            continue;
        const auto local = static_cast<std::uint32_t>(scan.pick);
        const std::uint32_t slot =
            local * cfg_.schedulersPerSm + sched.id();
        sched.noteIssued(local);
        meter_.noteIssue(sched.id(), slot);
        sched.setWake(local, issueWarp(warps_[slot], now));
        issued = true;
    }
    if (issued)
        return now + 1;
    if (lsu_.busy())
        next = std::min(next, lsu_.nextEvent(now));
    return next;
}

void
StreamingMultiprocessor::beginStaged()
{
    latte_assert(!stagedMode_);
    stagedMode_ = true;
    realTracer_ = tracer_;
    if (tracer_) {
        if (!stagingTracer_) {
            stagingTracer_ = std::make_unique<Tracer>(256);
            stagingTracer_->setStaging(true);
        }
        tracer_ = stagingTracer_.get();
        cache_.setTracer(tracer_);
        cache_.modeProvider()->redirectTracer(tracer_);
        stage_.events = tracer_;
    }
    stage_.reset();
    cache_.setStage(&stage_);
}

void
StreamingMultiprocessor::endStaged()
{
    latte_assert(stagedMode_);
    stagedMode_ = false;
    cache_.setStage(nullptr);
    tracer_ = realTracer_;
    cache_.setTracer(realTracer_);
    cache_.modeProvider()->redirectTracer(realTracer_);
    stage_.events = nullptr;
    realTracer_ = nullptr;
}

void
StreamingMultiprocessor::stagedTick(Cycles now)
{
    wake(lsu_.tick(now, cache_, warps_));
    // A deferred miss postpones the issue phase too: the scheduler feeds
    // the tolerance meter that the policy harvests at EP boundaries, and
    // the sequential order is miss tail first, issue phase second.
    stagedNext_ = lsu_.hasDeferred() ? kNoCycle : issueAndNext(now);
}

void
StreamingMultiprocessor::drainStaged(std::size_t begin, std::size_t end)
{
    for (std::size_t i = begin; i < end; ++i)
        realTracer_->record(stagingTracer_->stagedAt(i));
}

Cycles
StreamingMultiprocessor::commitStage(Cycles now)
{
    for (const StagedHistSample &sample : stage_.histSamples)
        CompressedCache::recordHist(sample.hist, sample.value);

    const bool hasL2Op = stage_.hasL2Write || stage_.deferredMiss;
    const std::size_t staged = stage_.events ? stage_.events->size() : 0;
    const std::size_t split = hasL2Op ? stage_.split : staged;
    if (stage_.events)
        drainStaged(0, split);

    Cycles next = stagedNext_;
    if (stage_.deferredMiss) {
        // The L2/NOC/DRAM events of finishMiss() go straight to the
        // real tracer; the L1-side tail and the issue phase append to
        // the staging buffer after `split`, exactly as the sequential
        // loop interleaves them.
        const Cycles ready = cache_.finishMiss(now, stage_.missAddr);
        wake(lsu_.completeDeferred(ready, warps_));
        next = issueAndNext(now);
    } else if (stage_.hasL2Write) {
        cache_.commitStagedWrite(now, stage_.l2WriteAddr);
    }

    if (stage_.events) {
        drainStaged(split, stage_.events->size());
        stagingTracer_->clear();
    }
    stage_.reset();
    return next;
}

Cycles
StreamingMultiprocessor::issueWarp(Warp &warp, Cycles now)
{
    metrics::ProfileScope profile(metrics::ProfileZone::SmIssue);
    const DecodedInstr instr =
        program_->fetch(warp.globalWarpId, warp.pc);

    if (tracer_) {
        TraceEvent ev = makeTraceEvent(
            now, TraceEventKind::WarpIssue,
            static_cast<std::uint16_t>(smId_));
        ev.arg0 = warp.globalWarpId;
        ev.arg1 = static_cast<std::uint32_t>(warp.pc);
        tracer_->record(ev);
    }

    switch (instr.op) {
      case Op::Exit:
        finishWarp(warp);
        return kNoCycle;

      case Op::Alu:
      case Op::Sfu:
        ++instructions;
        ++aluInstructions;
        ++warp.pc;
        return now + std::max<Cycles>(instr.latency, 1);

      case Op::Load: {
        ++instructions;
        ++memInstructions;
        ++warp.pc;
        const LineList &lines = instr.laneAddrs;
        if (lines.empty())
            return now + 1;
        accessesPerLoad.sample(static_cast<double>(lines.size()));
        warp.state = WarpState::WaitMem;
        warp.pendingAccesses = static_cast<std::uint32_t>(lines.size());
        warp.memReady = 0;
        lsu_.enqueueLoad(warp.slot, lines);
        return kNoCycle;
      }

      case Op::Store:
        ++instructions;
        ++memInstructions;
        ++warp.pc;
        lsu_.enqueueStore(instr.laneAddrs);
        // Write-avoid: the warp does not wait for stores.
        return now + 1;
    }
    latte_panic("unknown opcode");
}

void
StreamingMultiprocessor::finishWarp(Warp &warp)
{
    warp.state = WarpState::Finished;
    latte_assert(warp.ctaSlot < ctaRemaining_.size());
    latte_assert(ctaRemaining_[warp.ctaSlot] > 0);
    if (--ctaRemaining_[warp.ctaSlot] == 0) {
        --residentCtas_;
        ++ctasCompleted;
        for (Warp &other : warps_) {
            if (other.state == WarpState::Finished &&
                other.ctaSlot == warp.ctaSlot) {
                other.state = WarpState::Unassigned;
                freeSlots_.push_back(other.slot);
            }
        }
    }
}

} // namespace latte
