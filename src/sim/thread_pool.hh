/**
 * @file
 * The `--sim-threads` input surface. The simulator steps its SMs in
 * index order on the run's own thread; `-j` across cells is the one way
 * a sweep uses more cores. The option, the `sim_threads` spec key and
 * `LATTE_SIM_THREADS` are still parsed and validated, so old command
 * lines, specs and journals load and a malformed value still fails,
 * but the value no longer changes how a run executes.
 */

#ifndef LATTE_SIM_THREAD_POOL_HH
#define LATTE_SIM_THREAD_POOL_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "metrics/latency_histogram.hh"

namespace latte
{

/**
 * Resolve a `--sim-threads` / `LATTE_SIM_THREADS` value to a thread
 * count. "" consults the environment and defaults to 1; "auto" means
 * hardware concurrency; otherwise a positive integer.
 * @return the thread count, or 0 with @p error set when @p text is
 *         malformed.
 */
unsigned resolveSimThreads(std::string_view text, std::string *error);

/**
 * Counters of the retired per-cycle SM thread pool. Kept so existing
 * readers still compile; every field reads zero.
 */
struct SimPoolStats
{
    std::uint64_t epochs = 0;
    std::uint64_t items = 0;
    metrics::LatencyHistogram barrierWaitNs;
};

/** Always empty: no run steps its SMs on a pool. */
inline SimPoolStats
simPoolGlobalStats()
{
    return SimPoolStats();
}

} // namespace latte

#endif // LATTE_SIM_THREAD_POOL_HH
