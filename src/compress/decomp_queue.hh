/**
 * @file
 * Decompression-engine contention model. Each SM has one decompressor
 * per compression algorithm; hits to compressed lines queue for it. The
 * effective hit latency follows Eq. (3) of the paper:
 *
 *   effective_hit_latency = decompression_latency
 *                         + (queue_insertion_pos + 1)
 */

#ifndef LATTE_COMPRESS_DECOMP_QUEUE_HH
#define LATTE_COMPRESS_DECOMP_QUEUE_HH

#include <deque>

#include "common/stats.hh"
#include "common/types.hh"

namespace latte
{

/** Single-algorithm decompression queue. */
class DecompressionQueue : public StatGroup
{
  public:
    DecompressionQueue(std::string name, StatGroup *parent)
        : StatGroup(std::move(name), parent),
          requests(this, "requests", "lines decompressed"),
          queuePos(this, "queue_pos", "average insertion position"),
          peakDepth(this, "peak_depth", "deepest queue observed")
    {}

    /**
     * Enqueue a decompression starting at @p now with pipeline latency
     * @p latency.
     * @return the cycle the decompressed data is ready.
     */
    Cycles
    enqueue(Cycles now, Cycles latency)
    {
        while (!pending_.empty() && pending_.front() <= now)
            pending_.pop_front();

        const auto pos = static_cast<Cycles>(pending_.size());
        const Cycles ready = now + latency + pos + 1;
        pending_.push_back(ready);

        ++requests;
        queuePos.sample(static_cast<double>(pos));
        if (pending_.size() > static_cast<std::size_t>(peakDepth.count()))
            peakDepth += pending_.size() - peakDepth.count();
        return ready;
    }

    /** Entries still draining at @p now. */
    std::size_t
    depth(Cycles now) const
    {
        std::size_t n = 0;
        for (const Cycles c : pending_)
            if (c > now)
                ++n;
        return n;
    }

    /** Expected queue position a hit at @p now would get (for AMAT). */
    Cycles
    expectedPos(Cycles now) const
    {
        return static_cast<Cycles>(depth(now));
    }

    Counter requests;
    Average queuePos;
    Counter peakDepth;

  private:
    std::deque<Cycles> pending_;
};

} // namespace latte

#endif // LATTE_COMPRESS_DECOMP_QUEUE_HH
