/**
 * @file
 * A bandwidth- and latency-constrained DRAM channel model. Requests pay
 * the minimum access latency (Table II: 230 cycles from the SM's
 * perspective, of which the L2 path contributes 120) plus queueing delay
 * once the channel's sustained bandwidth is saturated.
 */

#ifndef LATTE_MEM_DRAM_HH
#define LATTE_MEM_DRAM_HH

#include <algorithm>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "interconnect.hh"
#include "trace/tracer.hh"

namespace latte
{

namespace metrics
{
class LatencyHistogram;
class MetricRegistry;
} // namespace metrics

/** Aggregate DRAM channel with a service-rate queue. */
class DramModel : public StatGroup
{
  public:
    DramModel(const GpuConfig &cfg, StatGroup *parent);

    /**
     * Issue a @p bytes transfer arriving at the controller at @p now.
     * @return the cycle the data is available at the L2.
     */
    Cycles access(Cycles now, std::uint32_t bytes);

    /** Attach the event tracer (not owned; nullptr disables tracing). */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

    /** Attach the metric registry (not owned; nullptr detaches). */
    void setMetrics(metrics::MetricRegistry *metrics);

    /** Cycles of backlog in the channel queue as seen at @p now. */
    double
    queueBacklog(Cycles now) const
    {
        return std::max(0.0, channel_.nextFree - static_cast<double>(now));
    }

    Counter accesses;
    Counter bytesTransferred;
    Average queueDelay;

  private:
    Tracer *tracer_ = nullptr;
    metrics::LatencyHistogram *queueDelayHist_ = nullptr;
    /** Extra latency DRAM adds beyond the L2 round trip. */
    Cycles extraLatency_;
    double bytesPerCycle_;
    /** The channel's bookings. */
    SerialResource channel_;
};

} // namespace latte

#endif // LATTE_MEM_DRAM_HH
