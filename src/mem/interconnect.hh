/**
 * @file
 * SM <-> L2 interconnection network, modelled as a shared pipe with a
 * fixed traversal latency and an aggregate bandwidth cap. Captures the
 * congestion that makes L1 misses progressively more expensive for
 * memory-intensive workloads.
 */

#ifndef LATTE_MEM_INTERCONNECT_HH
#define LATTE_MEM_INTERCONNECT_HH

#include <algorithm>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace latte
{

/**
 * The booking rule of the shared memory resources (each network
 * channel, the DRAM channel, each L2 bank): one booking at a time, in
 * call order, from its ready cycle or the previous booking's end.
 */
struct SerialResource
{
    /** Book @p service cycles ready at @p ready. @return the wait. */
    double
    book(double ready, double service)
    {
        const double start = std::max(ready, nextFree);
        nextFree = start + service;
        return start - ready;
    }

    double nextFree = 0; //!< the cycle the last booking ends
};

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
    SerialResource channels_[2]; //!< indexed by Channel
};

} // namespace latte

#endif // LATTE_MEM_INTERCONNECT_HH
