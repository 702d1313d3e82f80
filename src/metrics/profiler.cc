#include "profiler.hh"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <vector>

#include "exposition.hh"

namespace latte::metrics
{

const char *
profileZoneName(ProfileZone zone)
{
    switch (zone) {
      case ProfileZone::SmIssue: return "sm_issue";
      case ProfileZone::L1Access: return "l1_access";
      case ProfileZone::CompressorProbe: return "compressor_probe";
      case ProfileZone::CompressorCompress:
        return "compressor_compress";
      case ProfileZone::L2Access: return "l2_access";
      case ProfileZone::DramAccess: return "dram_access";
      case ProfileZone::RunnerSerialize: return "runner_serialize";
    }
    return "unknown";
}

namespace detail
{
std::atomic<bool> profilerEnabledFlag{false};
} // namespace detail

namespace
{

using Totals = std::array<ZoneTotals, kNumProfileZones>;

struct ProfilerState
{
    std::mutex mutex;
    /** Totals flushed from exited threads (and explicit resets). */
    Totals flushed{};
    /** Live per-thread buffers, registered on first record. */
    std::vector<const Totals *> live;
};

ProfilerState &
state()
{
    // Leaked singleton: thread-exit flushes may run during static
    // destruction, after a function-local static would be gone.
    static ProfilerState *s = new ProfilerState;
    return *s;
}

/** Registers this thread's buffer on construction, flushes on exit. */
struct ThreadBuffer
{
    Totals totals{};

    ThreadBuffer()
    {
        ProfilerState &s = state();
        std::lock_guard<std::mutex> lock(s.mutex);
        s.live.push_back(&totals);
    }

    ~ThreadBuffer()
    {
        ProfilerState &s = state();
        std::lock_guard<std::mutex> lock(s.mutex);
        for (std::size_t z = 0; z < kNumProfileZones; ++z) {
            s.flushed[z].calls += totals[z].calls;
            s.flushed[z].nanos += totals[z].nanos;
        }
        s.live.erase(std::remove(s.live.begin(), s.live.end(), &totals),
                     s.live.end());
    }
};

thread_local ThreadBuffer tlsBuffer;

} // namespace

namespace detail
{

void
profilerRecord(ProfileZone zone, std::uint64_t nanos)
{
    ZoneTotals &t = tlsBuffer.totals[static_cast<std::size_t>(zone)];
    ++t.calls;
    t.nanos += nanos;
}

} // namespace detail

void
setProfilerEnabled(bool enabled)
{
    detail::profilerEnabledFlag.store(enabled,
                                      std::memory_order_relaxed);
}

void
profilerReset()
{
    ProfilerState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.flushed = Totals{};
    for (const Totals *live : s.live)
        *const_cast<Totals *>(live) = Totals{};
}

std::array<ZoneTotals, kNumProfileZones>
profilerSnapshot()
{
    ProfilerState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    Totals out = s.flushed;
    for (const Totals *live : s.live) {
        for (std::size_t z = 0; z < kNumProfileZones; ++z) {
            out[z].calls += (*live)[z].calls;
            out[z].nanos += (*live)[z].nanos;
        }
    }
    return out;
}

void
writeProfileJsonl(std::ostream &os)
{
    const Totals totals = profilerSnapshot();
    for (std::size_t z = 0; z < kNumProfileZones; ++z) {
        if (totals[z].calls == 0)
            continue;
        char line[256];
        std::snprintf(
            line, sizeof(line),
            "{\"calls\":%llu,\"seconds\":%.9f,\"type\":\"profile\","
            "\"zone\":\"%s\"}\n",
            static_cast<unsigned long long>(totals[z].calls),
            static_cast<double>(totals[z].nanos) * 1e-9,
            profileZoneName(static_cast<ProfileZone>(z)));
        os << line;
    }
}

void
exposeProfile(Exposition &out)
{
    const Totals totals = profilerSnapshot();
    for (std::size_t z = 0; z < kNumProfileZones; ++z) {
        if (totals[z].calls == 0)
            continue;
        const MetricLabels zone = {
            {"zone", profileZoneName(static_cast<ProfileZone>(z))}};
        out.counter("profile_calls_total", zone,
                    static_cast<double>(totals[z].calls));
        out.counter("profile_seconds_total", zone,
                    static_cast<double>(totals[z].nanos) / 1e9);
    }
}

} // namespace latte::metrics
