#include "interconnect.hh"

namespace latte
{

Interconnect::Interconnect(const GpuConfig &cfg, StatGroup *parent)
    : StatGroup("noc", parent),
      packets(this, "packets", "packets injected"),
      bytesMoved(this, "bytes", "bytes moved over the network"),
      queueDelay(this, "queue_delay", "average injection queueing delay"),
      // The network contributes a fixed fraction of the 120-cycle minimum
      // L2 latency; the remainder is charged at the L2 itself.
      traversal_(cfg.l2.minLatency / 4),
      bytesPerCycle_(cfg.nocBytesPerCycle)
{}

Cycles
Interconnect::transfer(Cycles now, std::uint32_t bytes, Channel channel)
{
    ++packets;
    bytesMoved += bytes;

    const double service = static_cast<double>(bytes) / bytesPerCycle_;
    const double queue =
        channels_[static_cast<std::size_t>(channel)].book(
            static_cast<double>(now), service);
    queueDelay.sample(queue);

    return now + traversal_ + static_cast<Cycles>(queue + service);
}

} // namespace latte
