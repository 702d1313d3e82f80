/**
 * @file
 * The structured event tracer: a flight recorder backed by a fixed-size
 * ring buffer. Components hold a `Tracer *` that is null when tracing is
 * off, so the disabled hot path costs a single branch and the enabled
 * path a bounds check plus a 32-byte store — no allocation, no locks
 * (each simulation run owns its own tracer and runs on one thread).
 *
 * When the ring fills, the oldest events are overwritten (classic
 * flight-recorder semantics) but the per-kind counters keep the exact
 * totals, so event counts always reconcile with the StatGroup counters
 * even after drops.
 */

#ifndef LATTE_TRACE_TRACER_HH
#define LATTE_TRACE_TRACER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "events.hh"

namespace latte
{

/** Ring-buffer event recorder; one per simulated run. */
class Tracer
{
  public:
    /** Default ring capacity (events), ~8 MiB of buffer. */
    static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 18;

    explicit Tracer(std::size_t capacity = kDefaultCapacity);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Runtime gate; a disabled tracer drops events after one branch. */
    bool enabled() const { return enabled_; }
    void setEnabled(bool enabled) { enabled_ = enabled; }

    /** Record one event (hot path). */
    void
    record(const TraceEvent &event)
    {
        if (!enabled_)
            return;
        counts_[static_cast<std::size_t>(event.kind)]++;
        ++recorded_;
        ring_[head_] = event;
        if (++head_ == ring_.size())
            head_ = 0;
        if (size_ < ring_.size())
            ++size_;
    }

    std::size_t capacity() const { return ring_.size(); }

    /** Events currently held in the ring. */
    std::size_t size() const { return size_; }

    /** Total record() calls while enabled (including overwritten ones). */
    std::uint64_t recorded() const { return recorded_; }

    /** Events overwritten because the ring was full. */
    std::uint64_t dropped() const { return recorded_ - size_; }

    /** Exact number of events of @p kind recorded (drops included). */
    std::uint64_t
    countOf(TraceEventKind kind) const
    {
        return counts_[static_cast<std::size_t>(kind)];
    }

    /** Visit retained events oldest-to-newest. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        const std::size_t start =
            size_ < ring_.size() ? 0 : head_; // oldest retained slot
        for (std::size_t i = 0; i < size_; ++i)
            fn(ring_[(start + i) % ring_.size()]);
    }

    /** Drop all recorded events and counters. */
    void clear();

  private:
    bool enabled_ = true;
    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::uint64_t recorded_ = 0;
    std::array<std::uint64_t, kNumTraceEventKinds> counts_{};
};

} // namespace latte

#endif // LATTE_TRACE_TRACER_HH
