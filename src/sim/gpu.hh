/**
 * @file
 * Top-level GPU model: 15 SMs sharing an interconnect, a banked L2 and a
 * DRAM channel (Table II). Drives kernels to completion with idle-gap
 * skipping so memory-bound phases simulate quickly.
 */

#ifndef LATTE_SIM_GPU_HH
#define LATTE_SIM_GPU_HH

#include <memory>
#include <optional>
#include <vector>

#include "common/config.hh"
#include "common/outcome.hh"
#include "common/stats.hh"
#include "mem/dram.hh"
#include "mem/interconnect.hh"
#include "mem/l2cache.hh"
#include "mem/memory_image.hh"
#include "sm.hh"

namespace latte
{

namespace metrics
{
class MetricRegistry;
} // namespace metrics

/**
 * A cooperative stop of the simulation loop: a cancellation token, a
 * cycle-budget trip or an injected fault. The loop winds down at the
 * next iteration, so all statistics remain consistent up to `cycle`.
 */
struct SimInterrupt
{
    RunErrorCode code = RunErrorCode::None;
    Cycles cycle = 0;      //!< global clock when the loop stopped
    std::string detail;    //!< human-readable cause
};

/** Result of one kernel launch. */
struct RunResult
{
    Cycles cycles = 0;            //!< kernel duration
    std::uint64_t instructions = 0;
    bool completed = false;       //!< false if a budget cut it short
    /** Set when the run control stopped the kernel early. */
    std::optional<SimInterrupt> interrupt;
};

/** The simulated GPU. */
class Gpu : public StatGroup
{
  public:
    /**
     * @param tracer optional event tracer (not owned); propagated to
     *        every SM, the L2 and the DRAM model. nullptr disables
     *        tracing at a cost of one branch per hook point.
     */
    explicit Gpu(const GpuConfig &cfg, MemoryImage *mem,
                 CacheTuning tuning = {}, Tracer *tracer = nullptr);

    std::uint32_t numSms() const
    {
        return static_cast<std::uint32_t>(sms_.size());
    }
    StreamingMultiprocessor &sm(std::uint32_t i) { return *sms_[i]; }
    L2Cache &l2() { return l2_; }
    DramModel &dram() { return dram_; }
    Interconnect &noc() { return noc_; }
    const GpuConfig &config() const { return cfg_; }

    /** Global clock; accumulates across kernel launches. */
    Cycles now() const { return now_; }

    /**
     * Attach the metric registry (not owned; nullptr detaches). The GPU
     * samples it from the kernel loop whenever it is due and propagates
     * it to every L1 and the DRAM model for latency histograms.
     */
    void setMetrics(metrics::MetricRegistry *metrics);

    /**
     * Attach the run-control surface (not owned; nullptr detaches).
     * The kernel loop polls it each iteration: a tripped cancellation
     * token, a passed deadline, an exhausted cycle budget or a due
     * injected fault stops the loop cooperatively and reports through
     * RunResult::interrupt.
     */
    void setControl(const RunControl *control) { control_ = control; }

    /**
     * Accepted for compatibility and ignored: SMs always step in index
     * order on the calling thread.
     */
    void setSimThreads(unsigned) {}

    /**
     * Run @p program to completion or until the whole launch has issued
     * @p max_instructions (the paper simulates 1 B instructions or
     * completion, whichever is earlier).
     */
    RunResult runKernel(KernelProgram &program,
                        std::uint64_t max_instructions = ~0ull,
                        Cycles max_cycles = 200'000'000);

    /** Aggregate counters across SMs. */
    std::uint64_t totalInstructions() const;
    std::uint64_t totalL1Hits() const;
    std::uint64_t totalL1Misses() const;

    Counter cyclesElapsed;
    Counter kernelsLaunched;

  private:
    const GpuConfig cfg_;
    MemoryImage *mem_;
    Tracer *tracer_ = nullptr;
    metrics::MetricRegistry *metrics_ = nullptr;
    const RunControl *control_ = nullptr;

    /** The interrupt due at `now_`, if the control surface trips. */
    std::optional<SimInterrupt> checkControl();
    Interconnect noc_;
    DramModel dram_;
    L2Cache l2_;
    std::vector<std::unique_ptr<StreamingMultiprocessor>> sms_;
    Cycles now_ = 0;
};

} // namespace latte

#endif // LATTE_SIM_GPU_HH
