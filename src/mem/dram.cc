#include "dram.hh"

#include "metrics/profiler.hh"
#include "metrics/registry.hh"

namespace latte
{

DramModel::DramModel(const GpuConfig &cfg, StatGroup *parent)
    : StatGroup("dram", parent),
      accesses(this, "accesses", "DRAM requests serviced"),
      bytesTransferred(this, "bytes", "bytes moved over the DRAM channel"),
      queueDelay(this, "queue_delay", "average queueing delay (cycles)"),
      extraLatency_(cfg.dramMinLatency - cfg.l2.minLatency),
      bytesPerCycle_(cfg.dramBytesPerCycle)
{}

void
DramModel::setMetrics(metrics::MetricRegistry *metrics)
{
    queueDelayHist_ =
        metrics ? &metrics->histogram("dram_queue_delay") : nullptr;
}

Cycles
DramModel::access(Cycles now, std::uint32_t bytes)
{
    metrics::ProfileScope profile(metrics::ProfileZone::DramAccess);
    ++accesses;
    bytesTransferred += bytes;

    const double service = static_cast<double>(bytes) / bytesPerCycle_;
    const double queue = channel_.book(static_cast<double>(now), service);
    queueDelay.sample(queue);
    if (queueDelayHist_)
        queueDelayHist_->record(queue);

    if (tracer_) {
        TraceEvent ev = makeTraceEvent(now, TraceEventKind::DramAccess);
        ev.arg0 = bytes;
        ev.value = queue;
        tracer_->record(ev);
    }

    return now + extraLatency_ + static_cast<Cycles>(queue + service);
}

} // namespace latte
