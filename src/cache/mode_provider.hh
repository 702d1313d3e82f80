/**
 * @file
 * Interface between the compressed L1 cache and the compression
 * management policy (LATTE-CC or one of the baselines). The cache asks
 * the provider which mode to use for each insertion and reports every
 * access/insertion so set-sampling policies can maintain their counters.
 * Accesses are described by the trace layer's AccessEvent struct — the
 * same record the tracer hooks consume — so the cache builds the
 * description of an access exactly once.
 */

#ifndef LATTE_CACHE_MODE_PROVIDER_HH
#define LATTE_CACHE_MODE_PROVIDER_HH

#include <cstdint>
#include <span>

#include "common/types.hh"
#include "compress/compressor.hh"
#include "trace/events.hh"

namespace latte
{

class Tracer;

/** Decides the compression mode of inserted lines. */
class CompressionModeProvider
{
  public:
    virtual ~CompressionModeProvider() = default;

    /**
     * Point the provider's event recording at @p tracer. The simulator
     * no longer calls it; it stays because wrapping providers (the
     * benchmark's timing wrapper) forward it to their policy. Providers
     * that do not trace ignore it.
     */
    virtual void
    redirectTracer(Tracer *tracer)
    {
        (void)tracer;
    }

    /** Mode for a line about to be inserted into @p set_index. */
    virtual CompressorId modeForInsertion(std::uint32_t set_index) = 0;

    /** Called on every L1 access. */
    virtual void
    observeAccess(const AccessEvent &event)
    {
        (void)event;
    }

    /** Called when a fill inserts a line (after modeForInsertion). */
    virtual void
    observeInsertion(Cycles now, std::uint32_t set_index, CompressorId mode,
                     std::span<const std::uint8_t> data)
    {
        (void)now; (void)set_index; (void)mode; (void)data;
    }
};

/** Trivial provider: never compress (the uncompressed baseline). */
class UncompressedProvider : public CompressionModeProvider
{
  public:
    CompressorId
    modeForInsertion(std::uint32_t) override
    {
        return CompressorId::None;
    }
};

} // namespace latte

#endif // LATTE_CACHE_MODE_PROVIDER_HH
