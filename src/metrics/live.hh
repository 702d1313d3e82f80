/**
 * @file
 * Live run introspection: a process-wide registry of in-flight cells
 * that external observers (the latted HTTP /metrics endpoint) can
 * snapshot mid-run.
 *
 * Deliberately NOT a MetricRegistry: attaching a registry to a run
 * makes it observational and bypasses the disk result cache, which
 * would break cache-served resubmits. This module instead keeps a few
 * relaxed atomics per in-flight cell — the Gpu cycle loop publishes
 * its progress every ~64k cycles through a thread_local slot pointer —
 * so scraping is wait-free for the simulator, TSan-clean (atomics,
 * never torn reads), and invisible to results, exports and RunKeys.
 */

#ifndef LATTE_METRICS_LIVE_HH
#define LATTE_METRICS_LIVE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exposition.hh"

namespace latte::metrics::live
{

/** Point-in-time view of one in-flight cell. */
struct CellSample
{
    std::string label;         //!< "KM/LATTE-CC" style cell name
    std::string context;       //!< log correlation id ("job-4/cell-9")
    std::uint64_t cycle = 0;   //!< last published simulated cycle
    std::uint64_t instructions = 0;
    double seconds = 0.0;      //!< wall time since the cell started
};

/**
 * RAII registration of the calling thread's current cell. The
 * ExperimentRunner wraps each simulated attempt in one of these; the
 * Gpu publishes through the thread_local current slot, so nesting is
 * not supported (the inner scope wins until it exits).
 */
class CellScope
{
  public:
    explicit CellScope(std::string label);
    ~CellScope();

    CellScope(const CellScope &) = delete;
    CellScope &operator=(const CellScope &) = delete;

    /**
     * Publish the calling thread's progress (relaxed stores; no-op
     * when no CellScope is live on this thread). Called from the Gpu
     * cycle loop at a throttled cadence.
     */
    static void publish(std::uint64_t cycle, std::uint64_t instructions);

    /** Opaque per-cell storage; defined (and only used) in live.cc. */
    struct Slot;

  private:
    Slot *slot_;
};

/** Snapshot every in-flight cell (registration order). */
std::vector<CellSample> snapshot();

/** Cells simulated to completion since process start. */
std::uint64_t cellsFinished();

/**
 * Add the live view to @p out: the in-flight gauge, the finished-cell
 * counter, and one `cell`-labeled gauge set per in-flight cell.
 */
void expose(Exposition &out);

} // namespace latte::metrics::live

#endif // LATTE_METRICS_LIVE_HH
