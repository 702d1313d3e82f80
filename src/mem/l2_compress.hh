/**
 * @file
 * The adaptive compression controller of the compressed L2
 * (--l2-compress=latte). It runs the same DuelingModeSelector as the
 * L1's LATTE-CC policy on its own EP clock, but feeds it exclusively
 * from L2-visible signals: the per-EP hit/miss service latencies the L2
 * itself observes. No SM-side meter is consulted.
 *
 * SC is not a candidate below the L1: its code-book training and
 * generation rebuilds are wired to the per-SM policies. The candidate
 * set is {None, BDI, BPC}.
 */

#ifndef LATTE_MEM_L2_COMPRESS_HH
#define LATTE_MEM_L2_COMPRESS_HH

#include <cstdint>
#include <vector>

#include "common/compress_id.hh"
#include "common/config.hh"
#include "common/ep_clock.hh"
#include "common/types.hh"
#include "compress/compression_domain.hh"
#include "compress/engines.hh"
#include "dueling_selector.hh"
#include "trace/tracer.hh"

namespace latte
{

/** Per-EP sample of the L2 controller, mirrored into the run trace. */
struct L2TracePoint
{
    Cycles cycle = 0;
    double latencyTolerance = 0;
    CompressorId mode = CompressorId::None;
};

/** Dedicated-set dueling mode selection for the compressed L2. */
class L2CompressionController
{
  public:
    explicit L2CompressionController(const GpuConfig &cfg);

    /** Attach the L2's domain and engines (not owned). */
    void bind(CompressionDomain *domain, CompressionEngines *engines);

    /** Attach the event tracer (not owned; nullptr disables tracing). */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

    /** The mode a fill into @p set_index stores with right now. */
    CompressorId
    modeForInsertion(std::uint32_t set_index) const
    {
        return selector_.modeForInsertion(set_index, /*sampling=*/true);
    }

    /** The mode follower sets currently insert with. */
    CompressorId currentMode() const { return selector_.winner(); }

    /**
     * Account one serviced L2 access. @p service_cycles is the
     * request-arrival-to-data latency the L2 observed for it (the
     * L2-side latency signal the tolerance estimate is built from).
     */
    void observeAccess(Cycles now, std::uint32_t set_index, bool hit,
                      bool is_write, double service_cycles);

    /** Per-EP trace (tolerance, winner), for the result backfill. */
    const std::vector<L2TracePoint> &trace() const { return trace_; }

    /** Latency tolerance measured in the most recent EP. */
    double lastTolerance() const { return lastTolerance_; }

    /** Times the winner mode changed. */
    std::uint64_t modeChanges() const { return selector_.modeChanges(); }

  private:
    void onEpBoundary(Cycles now);

    const GpuConfig &cfg_;
    EpClock clock_;
    DuelingModeSelector selector_;
    Tracer *tracer_ = nullptr;

    // EP-local latency signal (reset at every boundary).
    double hitLatSum_ = 0;
    std::uint64_t hitLatN_ = 0;
    double missLatSum_ = 0;
    std::uint64_t missLatN_ = 0;

    double lastMissEstimate_ = 0;
    double lastTolerance_ = 0;
    std::vector<L2TracePoint> trace_;
};

} // namespace latte

#endif // LATTE_MEM_L2_COMPRESS_HH
