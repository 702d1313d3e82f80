/**
 * @file
 * The sweep cell key and the on-disk experiment result cache.
 *
 * A RunKey identifies a simulation cell by workload, policy label,
 * seed, and a hash of the *entire* DriverOptions (config, tuning and
 * instruction budget) — so two sweeps with different tunings can never
 * alias, the collision the old abbr+"/"+policyName string key allowed.
 *
 * The disk cache stores one JSON file per cell under a caller-chosen
 * directory; lookups re-parse and re-validate, so a stale or truncated
 * file degrades to a miss, never a wrong result.
 */

#ifndef LATTE_RUNNER_RESULT_CACHE_HH
#define LATTE_RUNNER_RESULT_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>

#include "core/driver.hh"

namespace latte::runner
{

/** FNV-1a 64-bit hash (stable across platforms and runs). */
std::uint64_t fnv1a(const std::string &text);

/** Identity of one sweep cell. */
struct RunKey
{
    std::string workload;
    std::string policyLabel;
    std::uint64_t seed = 0;
    /** Hash of the canonical JSON dump of the full DriverOptions. */
    std::uint64_t configHash = 0;

    /** Key for @p request (label from runRequestLabel()). */
    static RunKey of(const RunRequest &request);

    /** Filesystem-safe unique name, e.g. "KM-LATTE-CC-0-1a2b...". */
    std::string fingerprint() const;

    /** configHash as the 16 hex digits the fingerprint carries. */
    std::string configHex() const;

    auto
    operator<=>(const RunKey &) const = default;
};

/** One-JSON-file-per-cell persistent result store. */
class ResultCache
{
  public:
    /** Results live in @p directory (created on first store). */
    explicit ResultCache(std::string directory);

    /** Parse the cell's file; nullopt on miss or schema mismatch. */
    std::optional<RunOutcome> lookup(const RunKey &key) const;

    /**
     * Atomically (write + rename) persist the cell's outcome. Only Ok
     * outcomes are stored: failures may be transient (timeouts,
     * injected faults) and are journaled, never cached.
     */
    void store(const RunKey &key, const RunOutcome &outcome) const;

    const std::string &directory() const { return directory_; }

  private:
    std::string path(const RunKey &key) const;

    std::string directory_;
};

} // namespace latte::runner

#endif // LATTE_RUNNER_RESULT_CACHE_HH
