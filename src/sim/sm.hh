/**
 * @file
 * Streaming multiprocessor model: warp slots, two GTO schedulers, a
 * load/store unit in front of the compressed L1, and the latency
 * tolerance meter LATTE-CC reads. The SM is tick-driven but reports the
 * next cycle it needs attention so the GPU loop can skip idle gaps.
 */

#ifndef LATTE_SIM_SM_HH
#define LATTE_SIM_SM_HH

#include <vector>

#include "cache/compressed_cache.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "instruction.hh"
#include "lsu.hh"
#include "lt_meter.hh"
#include "scheduler.hh"
#include "warp.hh"

namespace latte
{

/** One SM with its private L1 and compression engines. */
class StreamingMultiprocessor : public StatGroup
{
  public:
    StreamingMultiprocessor(const GpuConfig &cfg, SmId sm_id, L2Cache *l2,
                            MemoryImage *mem, StatGroup *parent,
                            CacheTuning tuning = {});

    CompressedCache &cache() { return cache_; }
    const CompressedCache &cache() const { return cache_; }
    CompressionEngines &engines() { return engines_; }
    LatencyToleranceMeter &meter() { return meter_; }
    LoadStoreUnit &lsu() { return lsu_; }

    /** Begin executing @p program; drops all warp state. */
    void startKernel(KernelProgram *program);

    /** True if another CTA fits (block and warp-slot limits). */
    bool canTakeCta() const;

    /** Place CTA @p cta_index on this SM; its warps wake at now+1. */
    void assignCta(Cycles now, std::uint32_t cta_index);

    /** What one cycle of the SM did, and when it needs the next. */
    struct TickResult
    {
        /** The next cycle to tick, or kNoCycle until more work arrives. */
        Cycles next = kNoCycle;
        /** Instructions issued (exits not counted). */
        std::uint32_t issued = 0;
        /** A CTA retired, so the SM may take another. */
        bool ctaRetired = false;
    };

    /** Execute one cycle. */
    TickResult tick(Cycles now);

    /** Account @p cycles of skipped (idle) time to the tolerance meter. */
    void noteIdle(std::uint64_t cycles);

    /** Attach the event tracer (not owned); forwards to the L1. */
    void
    setTracer(Tracer *tracer)
    {
        tracer_ = tracer;
        cache_.setTracer(tracer);
    }

    /** Resident warps currently in flight. */
    std::uint32_t activeWarps() const;

    Counter instructions;
    Counter aluInstructions;
    Counter memInstructions;
    Counter ctasCompleted;
    Average accessesPerLoad;

  private:
    /**
     * Execute @p warp's next instruction and note it in @p result.
     * @return the warp's new wake cycle
     */
    Cycles issueWarp(Warp &warp, Cycles now, TickResult &result);
    /** Retire @p warp; true when its CTA retired with it. */
    bool finishWarp(Warp &warp);

    const GpuConfig &cfg_;
    SmId smId_;
    MemoryImage *mem_;
    KernelProgram *program_ = nullptr;
    Tracer *tracer_ = nullptr;

    CompressionEngines engines_;
    CompressedCache cache_;
    LoadStoreUnit lsu_;
    LatencyToleranceMeter meter_;

    std::vector<Warp> warps_;
    std::vector<WarpScheduler> schedulers_;
    std::vector<std::uint32_t> freeSlots_;

    /** Remaining unfinished warps per resident CTA handle. */
    std::vector<std::uint32_t> ctaRemaining_;
    std::uint32_t residentCtas_ = 0;
    std::uint64_t ageClock_ = 0;
};

} // namespace latte

#endif // LATTE_SIM_SM_HH
