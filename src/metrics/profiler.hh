/**
 * @file
 * RAII wall-clock zone self-profiler. Instrumented code opens a
 * ProfileScope naming one of a fixed set of zones (SM issue, L1 access,
 * compressor probe/compress, L2/DRAM access, runner serialization);
 * the destructor charges the elapsed wall time to the zone.
 *
 * Disabled (the default) the cost per scope is one relaxed atomic load
 * and a predictable branch, so the hooks can live on the simulator's
 * hottest paths. Enabled, each scope pays two steady_clock reads;
 * samples accumulate into thread-local buffers (no contention on the
 * hot path) that are folded into global totals when a thread exits or
 * a snapshot is taken.
 *
 * The profiler is purely observational: totals never feed back into
 * simulation results, so enabling it cannot perturb a simulated bit
 * (pinned by Runner.ExecutionShortcutsAreBitIdentical). It DOES make
 * the experiment runner bypass the on-disk result cache — a cache hit
 * would attribute zero time to the zones the run would have exercised.
 */

#ifndef LATTE_METRICS_PROFILER_HH
#define LATTE_METRICS_PROFILER_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ostream>

namespace latte::metrics
{

class Exposition;

enum class ProfileZone : std::uint8_t
{
    SmIssue,            //!< warp fetch/decode/issue
    L1Access,           //!< compressed L1 lookup (hit and miss paths)
    CompressorProbe,    //!< size-only encode on insertion
    CompressorCompress, //!< full payload encode (verifyRoundTrip)
    L2Access,           //!< shared L2 lookup + bank queueing
    DramAccess,         //!< DRAM channel model
    RunnerSerialize,    //!< result JSON serialization / disk cache
};

constexpr std::size_t kNumProfileZones = 7;

/** Stable lower_snake_case zone name for exports. */
const char *profileZoneName(ProfileZone zone);

/** Accumulated wall time of one zone. */
struct ZoneTotals
{
    std::uint64_t calls = 0;
    std::uint64_t nanos = 0;
};

namespace detail
{
extern std::atomic<bool> profilerEnabledFlag;
void profilerRecord(ProfileZone zone, std::uint64_t nanos);
} // namespace detail

inline bool
profilerEnabled()
{
    return detail::profilerEnabledFlag.load(std::memory_order_relaxed);
}

void setProfilerEnabled(bool enabled);

/**
 * Zero all totals. Must not race with instrumented threads: call it
 * only while no simulation is in flight.
 */
void profilerReset();

/**
 * Aggregate totals across exited threads and the calling thread's live
 * buffer. Buffers of other still-running threads are folded in too;
 * call after worker threads have joined for exact numbers.
 */
std::array<ZoneTotals, kNumProfileZones> profilerSnapshot();

/** JSONL export: one {"type":"profile",...} line per non-empty zone. */
void writeProfileJsonl(std::ostream &os);

/**
 * Add the zone counters (`profile_calls_total`, `profile_seconds_total`,
 * one `zone` sample per non-empty zone) to @p out.
 */
void exposeProfile(Exposition &out);

/** RAII zone timer. */
class ProfileScope
{
  public:
    explicit ProfileScope(ProfileZone zone)
    {
        if (profilerEnabled()) {
            zone_ = zone;
            active_ = true;
            start_ = std::chrono::steady_clock::now();
        }
    }

    ~ProfileScope()
    {
        if (active_) {
            const auto elapsed =
                std::chrono::steady_clock::now() - start_;
            detail::profilerRecord(
                zone_,
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        elapsed)
                        .count()));
        }
    }

    ProfileScope(const ProfileScope &) = delete;
    ProfileScope &operator=(const ProfileScope &) = delete;

  private:
    std::chrono::steady_clock::time_point start_{};
    ProfileZone zone_ = ProfileZone::SmIssue;
    bool active_ = false;
};

} // namespace latte::metrics

#endif // LATTE_METRICS_PROFILER_HH
