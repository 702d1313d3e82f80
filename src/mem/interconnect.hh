/**
 * @file
 * SM <-> L2 interconnection network, modelled as a shared pipe with a
 * fixed traversal latency and an aggregate bandwidth cap. Captures the
 * congestion that makes L1 misses progressively more expensive for
 * memory-intensive workloads.
 */

#ifndef LATTE_MEM_INTERCONNECT_HH
#define LATTE_MEM_INTERCONNECT_HH

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace latte
{

/** Network with separate request and reply channels (as real GPUs). */
class Interconnect : public StatGroup
{
  public:
    /** Physical channel of a transfer. */
    enum class Channel : std::uint8_t { Request = 0, Reply = 1 };

    Interconnect(const GpuConfig &cfg, StatGroup *parent);

    /**
     * Transfer @p bytes injected at @p now on @p channel.
     * @return cycle the payload is delivered at the other side.
     */
    Cycles transfer(Cycles now, std::uint32_t bytes, Channel channel);

    /** Fixed one-way traversal latency. */
    Cycles traversalLatency() const { return traversal_; }

    Counter packets;
    Counter bytesMoved;
    Average queueDelay;

  private:
    Cycles traversal_;
    double bytesPerCycle_;
    double nextFree_[2] = {0, 0};
};

} // namespace latte

#endif // LATTE_MEM_INTERCONNECT_HH
