/**
 * @file
 * The LATTE-CC mode decision (Section III), shared by every cache level
 * that adapts its compression mode: the per-SM L1 policies and the
 * compressed-L2 controller. Dedicated sets sample each candidate mode;
 * once per EP the AMAT_GPU vote (Eq. 2), fed the effective hit latency
 * of Eq. 3, picks the mode the follower sets insert with.
 *
 * The owner keeps the EP clock and the latency signals it passes to
 * vote(); the selector owns the candidates, the dedicated-set mapping,
 * the decaying sample counters, the vote with its guards and the winner.
 */

#ifndef LATTE_MEM_DUELING_SELECTOR_HH
#define LATTE_MEM_DUELING_SELECTOR_HH

#include <array>
#include <cstdint>
#include <span>

#include "common/compress_id.hh"
#include "common/types.hh"
#include "compress/compression_domain.hh"
#include "compress/engines.hh"
#include "trace/tracer.hh"

namespace latte
{

class DuelingModeSelector
{
  public:
    /** Dedicated-set samples a candidate needs before it can vote. */
    static constexpr std::uint64_t kMinSamples = 8;

    /**
     * @param candidates the dueling modes in dedicated-set order; index
     *        0 must be None, which is also the initial winner.
     * @param vote_kind, change_kind the trace events a vote records.
     */
    DuelingModeSelector(std::span<const CompressorId> candidates,
                        TraceEventKind vote_kind,
                        TraceEventKind change_kind);

    /**
     * Map the dedicated sets over @p num_sets sets and attach what
     * Eq. 3 reads: the level's base @p hit_latency, its decompression
     * queues (@p domain) and its engines (not owned).
     */
    void bind(std::uint32_t num_sets, std::uint32_t dedicated_per_mode,
              Cycles hit_latency, const CompressionDomain *domain,
              CompressionEngines *engines);

    /** Candidate index set @p set_index samples, or -1 (follower). */
    int
    dedicatedIndex(std::uint32_t set_index) const
    {
        const std::uint32_t k = set_index % stride_;
        return k < size_ ? static_cast<int>(k) : -1;
    }

    /** Count one read in @p set_index; followers are not counted. */
    void
    count(std::uint32_t set_index, bool hit)
    {
        const int k = dedicatedIndex(set_index);
        if (k >= 0)
            ++(hit ? hits_ : misses_)[static_cast<std::size_t>(k)];
    }

    /** A dedicated set's own mode while @p sampling, else the winner. */
    CompressorId
    modeForInsertion(std::uint32_t set_index, bool sampling) const
    {
        const int k = sampling ? dedicatedIndex(set_index) : -1;
        return k >= 0 ? candidates_[static_cast<std::size_t>(k)] : winner();
    }

    /**
     * The EP vote: rank the candidates with kMinSamples by AMAT_GPU and
     * switch to the best if it passes the hysteresis, the capacity
     * guard and the debounce. Events go to @p tracer (may be null) as
     * @p sm. Returns whether the winner changed.
     */
    bool vote(Cycles now, double tolerance, double miss_latency,
              Tracer *tracer, std::uint16_t sm);

    /**
     * Make candidate @p k the winner without a vote (Adaptive-Hit-Count);
     * @p amat is the event value. Returns false if it already was.
     */
    bool switchTo(std::size_t k, Cycles now, double amat, Tracer *tracer,
                  std::uint16_t sm);

    /** Age the counters by a quarter (about four EPs of memory). */
    void
    decay()
    {
        for (std::size_t k = 0; k < size_; ++k) {
            hits_[k] -= hits_[k] / 4;
            misses_[k] -= misses_[k] / 4;
        }
    }

    /** Effective hit latency of candidate @p k at @p now (Eq. 3). */
    double effectiveHitLatency(std::size_t k, Cycles now) const;

    std::size_t size() const { return size_; }
    CompressorId candidate(std::size_t k) const { return candidates_[k]; }
    std::uint64_t hits(std::size_t k) const { return hits_[k]; }
    std::uint64_t misses(std::size_t k) const { return misses_[k]; }
    bool eligible(std::size_t k) const
    {
        return hits_[k] + misses_[k] >= kMinSamples;
    }
    CompressorId winner() const { return candidates_[winner_]; }
    std::uint64_t modeChanges() const { return modeChanges_; }
    /** Runner-up minus best AMAT at the latest vote with two eligible. */
    double voteMargin() const { return voteMargin_; }

  private:
    std::array<CompressorId, kNumCompressorIds> candidates_{};
    std::size_t size_;
    TraceEventKind voteKind_;
    TraceEventKind changeKind_;
    std::uint32_t stride_ = 1;
    double hitLatency_ = 0;
    const CompressionDomain *domain_ = nullptr;
    CompressionEngines *engines_ = nullptr;
    std::array<std::uint64_t, kNumCompressorIds> hits_{};
    std::array<std::uint64_t, kNumCompressorIds> misses_{};
    std::size_t winner_ = 0;
    std::size_t pending_ = 0;
    std::uint64_t modeChanges_ = 0;
    double voteMargin_ = 0;
};

} // namespace latte

#endif // LATTE_MEM_DUELING_SELECTOR_HH
