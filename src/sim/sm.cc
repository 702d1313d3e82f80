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

StreamingMultiprocessor::TickResult
StreamingMultiprocessor::tick(Cycles now)
{
    // A load that completes this cycle hands its warp's wake cycle to
    // the warp's scheduler before the issue phase scans.
    if (const auto load = lsu_.tick(now, cache_, warps_)) {
        schedulers_[load->slot % cfg_.schedulersPerSm].setWake(
            load->slot / cfg_.schedulersPerSm, load->readyAt);
    }

    // A warp that issues wakes at now + 1 or later, so the SM's next
    // tick is now + 1 after any issue and otherwise the earliest of the
    // schedulers' pending wakes and the LSU's next event.
    bool issued = false;
    TickResult result;
    for (WarpScheduler &sched : schedulers_) {
        const WarpScheduler::Scan scan = sched.scan(now);
        meter_.accumulate(scan.ready);
        result.next = std::min(result.next, scan.nextWake);
        if (scan.pick < 0)
            continue;
        const auto local = static_cast<std::uint32_t>(scan.pick);
        const std::uint32_t slot =
            local * cfg_.schedulersPerSm + sched.id();
        sched.noteIssued(local);
        meter_.noteIssue(sched.id(), slot);
        sched.setWake(local, issueWarp(warps_[slot], now, result));
        issued = true;
    }
    if (issued)
        result.next = now + 1;
    else if (lsu_.busy())
        result.next = std::min(result.next, lsu_.nextEvent(now));
    return result;
}

Cycles
StreamingMultiprocessor::issueWarp(Warp &warp, Cycles now,
                                   TickResult &result)
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
        result.ctaRetired |= finishWarp(warp);
        return kNoCycle;

      case Op::Alu:
      case Op::Sfu:
        ++instructions;
        ++result.issued;
        ++aluInstructions;
        ++warp.pc;
        return now + std::max<Cycles>(instr.latency, 1);

      case Op::Load: {
        ++instructions;
        ++result.issued;
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
        ++result.issued;
        ++memInstructions;
        ++warp.pc;
        lsu_.enqueueStore(instr.laneAddrs);
        // Write-avoid: the warp does not wait for stores.
        return now + 1;
    }
    latte_panic("unknown opcode");
}

bool
StreamingMultiprocessor::finishWarp(Warp &warp)
{
    warp.state = WarpState::Finished;
    latte_assert(warp.ctaSlot < ctaRemaining_.size());
    latte_assert(ctaRemaining_[warp.ctaSlot] > 0);
    if (--ctaRemaining_[warp.ctaSlot] != 0)
        return false;
    --residentCtas_;
    ++ctasCompleted;
    for (Warp &other : warps_) {
        if (other.state == WarpState::Finished &&
            other.ctaSlot == warp.ctaSlot) {
            other.state = WarpState::Unassigned;
            freeSlots_.push_back(other.slot);
        }
    }
    return true;
}

} // namespace latte
