#include "gpu.hh"

#include <algorithm>

#include "common/logging.hh"
#include "metrics/live.hh"
#include "metrics/registry.hh"

namespace latte
{

Gpu::Gpu(const GpuConfig &cfg, MemoryImage *mem, CacheTuning tuning,
         Tracer *tracer)
    : StatGroup("gpu"),
      cyclesElapsed(this, "cycles", "total simulated cycles"),
      kernelsLaunched(this, "kernels", "kernel launches"),
      cfg_(cfg), mem_(mem), tracer_(tracer),
      noc_(cfg, this),
      dram_(cfg, this),
      l2_(cfg, &noc_, &dram_, mem, this)
{
    latte_assert(mem_ != nullptr);
    dram_.setTracer(tracer_);
    l2_.setTracer(tracer_);
    sms_.reserve(cfg_.numSms);
    for (std::uint32_t i = 0; i < cfg_.numSms; ++i) {
        sms_.push_back(std::make_unique<StreamingMultiprocessor>(
            cfg_, i, &l2_, mem_, this, tuning));
        sms_.back()->setTracer(tracer_);
    }
}

void
Gpu::setMetrics(metrics::MetricRegistry *metrics)
{
    metrics_ = metrics;
    dram_.setMetrics(metrics);
    l2_.setMetrics(metrics);
    for (auto &sm : sms_)
        sm->cache().setMetrics(metrics);
}

std::optional<SimInterrupt>
Gpu::checkControl()
{
    if (!control_)
        return std::nullopt;

    if (control_->cancel && control_->cancel->cancelled())
        return SimInterrupt{RunErrorCode::Cancelled, now_,
                            "cancellation token tripped"};

    // Read the clock only when a deadline is set: the common untimed
    // run pays one comparison.
    if (control_->deadline != RunControl::Clock::time_point::max() &&
        RunControl::Clock::now() >= control_->deadline)
        return SimInterrupt{RunErrorCode::WallClockTimeout, now_,
                            "per-cell wall-clock budget exhausted"};

    if (control_->cycleBudget != 0 && now_ >= control_->cycleBudget) {
        return SimInterrupt{
            RunErrorCode::CycleBudgetExceeded, now_,
            strfmt("simulated-cycle budget of {} exhausted",
                   control_->cycleBudget)};
    }

    // Injected faults: the earliest due fault fires. The detail string
    // snapshots the live state of the faulted subsystem so the recorded
    // failure reads like a real post-mortem.
    const FaultPoint *due = nullptr;
    for (const FaultPoint &fault : control_->faults.faults) {
        if (now_ >= fault.atCycle &&
            (!due || fault.atCycle < due->atCycle))
            due = &fault;
    }
    if (!due)
        return std::nullopt;

    std::string detail;
    switch (due->kind) {
      case FaultKind::CompressorCorruption:
        detail = strfmt("injected: compressed-line round-trip "
                        "verification mismatch at cycle {}",
                        now_);
        break;
      case FaultKind::DecompQueueStall: {
        std::size_t depth = 0;
        for (const auto &sm : sms_)
            depth += sm->cache().domain().decompDepth(now_);
        detail = strfmt("injected: decompression queue stopped "
                        "draining ({} entries in flight)",
                        depth);
        break;
      }
      case FaultKind::DramTimeout:
        detail = strfmt("injected: DRAM channel unresponsive "
                        "(backlog {} cycles)",
                        dram_.queueBacklog(now_));
        break;
      case FaultKind::AllocFailure:
        detail = "injected: cache line allocation failed";
        break;
    }
    return SimInterrupt{faultErrorCode(due->kind), now_,
                        std::move(detail)};
}

RunResult
Gpu::runKernel(KernelProgram &program, std::uint64_t max_instructions,
               Cycles max_cycles)
{
    ++kernelsLaunched;
    const Cycles start = now_;

    if (tracer_) {
        TraceEvent ev =
            makeTraceEvent(start, TraceEventKind::KernelBegin);
        ev.arg0 = kernelsLaunched.count() - 1;
        tracer_->record(ev);
    }

    for (auto &sm : sms_)
        sm->startKernel(&program);

    std::uint32_t next_cta = 0;
    const std::uint32_t num_ctas = program.numCtas();

    std::vector<Cycles> next_tick(sms_.size(), now_);
    std::vector<Cycles> last_tick(sms_.size(), now_);

    bool budget_hit = false;
    std::optional<SimInterrupt> interrupt;
    // Simulated-cycle cadence of live-gauge publication (observational
    // only; the stores land in this thread's metrics::live slot).
    constexpr Cycles kLivePublishPeriod = Cycles{1} << 16;
    Cycles next_live_publish = start;
    // Instructions this kernel executed so far.
    std::uint64_t executed = 0;
    // An SM takes a CTA only after one of its own retired, so CTAs are
    // distributed at the start and after a tick that retired one.
    bool cta_retired = true;
    // The earliest cycle any SM needs attention: the minimum of
    // next_tick, kept up to date by every write to it.
    Cycles next = sms_.empty() ? kNoCycle : now_;
    while (true) {
        // Distribute CTAs round-robin to SMs with capacity.
        bool assigned = cta_retired;
        cta_retired = false;
        while (assigned && next_cta < num_ctas) {
            assigned = false;
            for (std::uint32_t i = 0;
                 i < sms_.size() && next_cta < num_ctas; ++i) {
                if (sms_[i]->canTakeCta()) {
                    sms_[i]->assignCta(now_, next_cta++);
                    next_tick[i] = std::min(next_tick[i], now_ + 1);
                    next = std::min(next, now_ + 1);
                    assigned = true;
                }
            }
        }

        if (next == kNoCycle && next_cta < num_ctas) {
            // Every SM is empty and still none takes a CTA.
            interrupt = SimInterrupt{
                RunErrorCode::InvalidConfig, now_,
                strfmt("a CTA of {} warps fits no SM ({} warp slots, "
                       "{} CTA slots per SM)",
                       program.warpsPerCta(), cfg_.maxWarpsPerSm,
                       cfg_.maxBlocksPerSm)};
            budget_hit = true;
            break;
        }
        if (next == kNoCycle)
            break; // every SM drained and no CTAs left
        latte_assert(next >= now_, "clock went backwards");
        now_ = std::max(now_, next);

        if ((interrupt = checkControl())) {
            budget_hit = true;
            break;
        }

        if (now_ - start > max_cycles) {
            latte_warn("kernel {} exceeded {} cycles; stopping",
                       program.name(), max_cycles);
            budget_hit = true;
            break;
        }

        // Due SMs step in index order; an SM's idle gap only feeds its
        // own tolerance meter, so it is settled just before its tick.
        next = kNoCycle;
        for (std::uint32_t i = 0; i < sms_.size(); ++i) {
            if (next_tick[i] > now_) {
                next = std::min(next, next_tick[i]);
                continue;
            }
            const Cycles gap = now_ - last_tick[i];
            if (gap > 1)
                sms_[i]->noteIdle(gap - 1);
            last_tick[i] = now_;
            const StreamingMultiprocessor::TickResult tick =
                sms_[i]->tick(now_);
            next_tick[i] = tick.next;
            next = std::min(next, tick.next);
            executed += tick.issued;
            cta_retired |= tick.ctaRetired;
            latte_assert(next_tick[i] == kNoCycle || next_tick[i] > now_,
                         "SM must request a future tick");
        }

        if (metrics_ && metrics_->due(now_))
            metrics_->sample(now_);

        if (executed >= max_instructions) {
            budget_hit = true;
            break;
        }

        // Feed the thread's live-metrics slot so a /metrics scrape
        // mid-run sees the cell advancing. Throttled: the stores are
        // relaxed, but there is no reason to publish every cycle.
        if (now_ >= next_live_publish) {
            metrics::live::CellScope::publish(now_, executed);
            next_live_publish = now_ + kLivePublishPeriod;
        }
    }

    const Cycles duration = now_ - start;
    cyclesElapsed += duration;

    if (tracer_) {
        TraceEvent ev = makeTraceEvent(now_, TraceEventKind::KernelEnd);
        ev.arg0 = kernelsLaunched.count() - 1;
        ev.arg1 = budget_hit ? 0 : 1;
        tracer_->record(ev);
    }

    RunResult result;
    result.cycles = duration;
    result.instructions = executed;
    result.completed = !budget_hit;
    result.interrupt = std::move(interrupt);
    return result;
}

std::uint64_t
Gpu::totalInstructions() const
{
    std::uint64_t n = 0;
    for (const auto &sm : sms_)
        n += sm->instructions.count();
    return n;
}

std::uint64_t
Gpu::totalL1Hits() const
{
    std::uint64_t n = 0;
    for (const auto &sm : sms_)
        n += sm->cache().hits.count();
    return n;
}

std::uint64_t
Gpu::totalL1Misses() const
{
    std::uint64_t n = 0;
    for (const auto &sm : sms_)
        n += sm->cache().misses.count() +
             sm->cache().mergedMisses.count();
    return n;
}

} // namespace latte
