/**
 * @file
 * Concrete compression management policies: the uncompressed baseline,
 * the static schemes (Section V-A), LATTE-CC itself (Section III), and
 * the latency-tolerance-blind adaptive baselines of Section V-D.
 */

#ifndef LATTE_CORE_POLICIES_HH
#define LATTE_CORE_POLICIES_HH

#include <memory>

#include "mem/dueling_selector.hh"
#include "policy.hh"

namespace latte
{

/** Always insert with one fixed mode (None/BDI/SC/BPC). */
class StaticPolicy : public Policy
{
  public:
    StaticPolicy(const GpuConfig &cfg, CompressorId mode)
        : Policy(cfg), mode_(mode)
    {
        usesSc_ = mode == CompressorId::Sc;
    }

    std::string
    name() const override
    {
        return mode_ == CompressorId::None
                   ? "Baseline"
                   : strfmt("Static-{}", compressorName(mode_));
    }

    CompressorId modeForInsertion(std::uint32_t) override { return mode_; }
    CompressorId currentMode() const override { return mode_; }

  private:
    CompressorId mode_;
};

/**
 * LATTE-CC (Section III): set-sampling capacity estimation, per-EP
 * latency tolerance, AMAT_GPU-minimising mode selection. The decision
 * itself is the shared DuelingModeSelector; this class adds the L1's
 * sampling back-off and the mismatch flush.
 */
class LatteCcPolicy : public Policy
{
  public:
    /**
     * @param modes candidate modes; index 0 must be None. The default is
     *        the paper's {no-compression, BDI, SC}; Section V-E swaps SC
     *        for BPC.
     * @param use_tolerance when false, AMAT is evaluated with zero
     *        latency tolerance (the Adaptive-CMP baseline).
     */
    LatteCcPolicy(const GpuConfig &cfg,
                  std::vector<CompressorId> modes =
                      {CompressorId::None, CompressorId::Bdi,
                       CompressorId::Sc},
                  bool use_tolerance = true);

    std::string name() const override;

    void bind(CompressedCache *cache, CompressionEngines *engines,
              LatencyToleranceMeter *meter) override;

    CompressorId
    modeForInsertion(std::uint32_t set_index) override
    {
        return selector_.modeForInsertion(set_index, samplingActive());
    }
    CompressorId currentMode() const override { return selector_.winner(); }
    std::uint64_t modeChanges() const override
    {
        return selector_.modeChanges();
    }
    double lastVoteMargin() const override { return selector_.voteMargin(); }

    /** The mode decision, with its sampling counters. */
    const DuelingModeSelector &selector() const { return selector_; }

  protected:
    void onAccess(const AccessEvent &event) override;
    void onEpBoundary(Cycles now, double tolerance,
                      bool period_end) override;
    void annotateTracePoint(PolicyTracePoint &point) override;

    /** This EP's decision (overridable by baselines); true on a switch. */
    virtual bool chooseWinner(Cycles now, double tolerance);

    /**
     * True while dedicated sets actively insert with their sampling
     * modes. Sampling runs continuously while the decision is unstable
     * and shrinks to the paper's learning-window behaviour (plus a
     * periodic probe period) once the winner has settled, so stable
     * hit-heavy workloads don't keep paying the sampling tax.
     */
    bool samplingActive() const;

    DuelingModeSelector selector_;
    bool useTolerance_;
    std::uint32_t stablePeriods_ = 0;
    bool winnerChanged_ = false;
    double prevTolerance_ = 0;
};

/**
 * Adaptive-Hit-Count (Section V-D): the same set-sampling machinery but
 * the winner is simply the mode with the most dedicated-set hits —
 * decompression latency and tolerance are ignored.
 */
class AdaptiveHitCountPolicy : public LatteCcPolicy
{
  public:
    explicit AdaptiveHitCountPolicy(const GpuConfig &cfg)
        : LatteCcPolicy(cfg)
    {}

    std::string name() const override { return "Adaptive-Hit-Count"; }

  protected:
    bool chooseWinner(Cycles now, double tolerance) override;
};

/**
 * Adaptive-CMP (Section V-D): accounts for decompression latency in the
 * CMP manner of Alameldeen & Wood but is blind to GPU latency tolerance.
 */
class AdaptiveCmpPolicy : public LatteCcPolicy
{
  public:
    explicit AdaptiveCmpPolicy(const GpuConfig &cfg)
        : LatteCcPolicy(cfg,
                        {CompressorId::None, CompressorId::Bdi,
                         CompressorId::Sc},
                        /*use_tolerance=*/false)
    {}

    std::string name() const override { return "Adaptive-CMP"; }
};

} // namespace latte

#endif // LATTE_CORE_POLICIES_HH
