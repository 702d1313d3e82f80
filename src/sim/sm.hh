/**
 * @file
 * Streaming multiprocessor model: warp slots, two GTO schedulers, a
 * load/store unit in front of the compressed L1, and the latency
 * tolerance meter LATTE-CC reads. The SM is tick-driven but reports the
 * next cycle it needs attention so the GPU loop can skip idle gaps.
 */

#ifndef LATTE_SIM_SM_HH
#define LATTE_SIM_SM_HH

#include <memory>
#include <optional>
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

    SmId smId() const { return smId_; }
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

    /** True when every assigned warp finished and the LSU drained. */
    bool drained() const;

    /**
     * Execute one cycle.
     * @return the next cycle this SM needs to be ticked, or kNoCycle if
     *         it is idle until more work arrives.
     */
    Cycles tick(Cycles now);

    // --- Barrier-synchronous parallel stepping -------------------------
    /**
     * Enter staged mode for a parallel kernel run: tracing (SM, cache
     * and policy) is redirected into a private growable staging tracer
     * and the cache parks shared-memory-system effects in the stage.
     * Paired with endStaged() around each runKernel().
     */
    void beginStaged();
    void endStaged();

    /**
     * The parallel (phase A) half of tick(): safe to run concurrently
     * with other SMs' stagedTick() because every shared effect lands in
     * the stage. When the tick's access was a primary miss the issue
     * phase is postponed too (the policy's EP accounting must see the
     * miss tail first); commitStage() runs it.
     */
    void stagedTick(Cycles now);

    /**
     * The barrier (phase B) half: called once per staged tick, in
     * canonical SM-index order, from the simulation thread. Replays
     * staged histogram samples and trace events around the parked L2
     * operation, completes a deferred miss, and returns what tick()
     * would have returned.
     */
    Cycles commitStage(Cycles now);

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
    /** Execute @p warp's next instruction; returns its new wake cycle. */
    Cycles issueWarp(Warp &warp, Cycles now);
    void finishWarp(Warp &warp);
    /** Hand a completed load's wake cycle to the warp's scheduler. */
    void wake(std::optional<LoadWake> load);
    /** The issue phase and next-tick computation shared by both modes. */
    Cycles issueAndNext(Cycles now);
    /** Replay staged events [begin, end) into the run's real tracer. */
    void drainStaged(std::size_t begin, std::size_t end);

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

    // --- Staged-mode state (parallel kernel runs only) -----------------
    L1Stage stage_;
    /** The run's tracer while tracer_ points at the staging buffer. */
    Tracer *realTracer_ = nullptr;
    std::unique_ptr<Tracer> stagingTracer_;
    /** issueAndNext() result computed in phase A (non-deferred ticks). */
    Cycles stagedNext_ = kNoCycle;
    bool stagedMode_ = false;

    /** Remaining unfinished warps per resident CTA handle. */
    std::vector<std::uint32_t> ctaRemaining_;
    std::uint32_t residentCtas_ = 0;
    std::uint64_t ageClock_ = 0;
};

} // namespace latte

#endif // LATTE_SIM_SM_HH
