/**
 * @file
 * SweepSpec: the declarative, serializable description of a whole
 * experiment sweep — the one sweep-construction API shared by the
 * per-figure bench binaries (via bench_util's grid builders), the
 * latte_client CLI and the latted job service.
 *
 * A spec names a grid:
 *
 *   workloads x policies x seeds x (the cross product of option axes)
 *
 * plus fixed DriverOptions overrides and the resilience knobs a
 * supervising runner may honour (retries, per-cell budgets). It has a
 * canonical JSON form (sorted keys, round-trippable numbers — built on
 * runner/json.*) so the same spec always dumps to the same bytes; that
 * text doubles as the daemon wire format and as the job fingerprint.
 *
 * Option keys are dotted snake_case paths over DriverOptions
 * ("cfg.l1_size_bytes", "cfg.latte.ep_accesses",
 * "max_instructions_per_kernel", ...); sweepOptionKeys() lists them.
 * Cells produced by expand() use the same RunKey material as hand-built
 * RunRequests, so results are shared with (and cache-compatible with)
 * every other front end.
 */

#ifndef LATTE_RUNNER_SWEEP_SPEC_HH
#define LATTE_RUNNER_SWEEP_SPEC_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "json.hh"
#include "json_fields.hh"

namespace latte::runner
{

/** One grid axis: a DriverOptions knob swept over a value list. */
struct SweepAxis
{
    std::string key;          //!< dotted option key
    std::vector<Json> values; //!< numbers (or strings for enum knobs)
};

struct SweepSpec
{
    /** Display name (job label in the service; optional). */
    std::string name;
    /**
     * Workload abbreviations ("KM", "SS", ...). Empty = the whole zoo
     * in Table III order.
     */
    std::vector<std::string> workloads;
    /** Policy names as in policyName(): "Baseline", "LATTE-CC", ... */
    std::vector<std::string> policies;
    /** Per-cell seeds; empty = {0} (the workloads' canonical seeds). */
    std::vector<std::uint64_t> seeds;
    /** Fixed DriverOptions overrides applied to every cell. */
    std::map<std::string, Json> options;
    /** Swept option axes (cross product, declaration order). */
    std::vector<SweepAxis> axes;

    // --- Resilience/execution knobs a supervising runner may honour ---
    std::uint32_t retries = 0;
    std::uint64_t retryBackoffMs = 100;
    std::uint64_t cellTimeoutMs = 0;
    std::uint64_t cellCycleBudget = 0;

    /**
     * First problem with the spec (unknown workload/policy/option key,
     * bad axis value, empty policy list...), or "" when sound.
     */
    std::string validate() const;

    /** Number of cells expand() would produce. */
    std::size_t cellCount() const;

    /**
     * Materialize every cell over @p base options, in the canonical
     * order: workload (outer) x axis combination (first axis slowest)
     * x policy x seed. Cells of a spec with axes get a
     * "Policy[key=value,...]" label so every axis point stays
     * distinguishable in exports and cache keys; specs without axes
     * leave labels empty (identical cells to hand-built requests).
     * Returns false and sets @p error on an invalid spec.
     */
    bool expand(std::vector<RunRequest> &out, std::string *error,
                const DriverOptions &base = {}) const;

    /** Canonical JSON (sorted keys; every field always present). */
    Json toJson() const;

    /** Parse; false + @p error naming the bad field. Not validated. */
    static bool fromJson(const Json &json, SweepSpec &spec,
                         std::string *error);

    /** FNV-1a of the canonical dump — the spec's identity. */
    std::uint64_t hash() const;
};

template <typename Io, Of<SweepAxis> S>
void
describe(Io &io, S &axis)
{
    io.field("key", axis.key);
    io.field("values", axis.values);
}

/** Every field is optional on read and always written. */
template <typename Io, Of<SweepSpec> S>
void
describe(Io &io, S &spec)
{
    using enum Presence;
    io.field("name", spec.name, Optional);
    io.field("workloads", spec.workloads, Optional);
    io.field("policies", spec.policies, Optional);
    io.field("seeds", spec.seeds, Optional);
    io.field("options", spec.options, Optional);
    io.field("axes", spec.axes, Optional);
    io.field("retries", spec.retries, Optional);
    io.field("retry_backoff_ms", spec.retryBackoffMs, Optional);
    io.field("cell_timeout_ms", spec.cellTimeoutMs, Optional);
    io.field("cell_cycle_budget", spec.cellCycleBudget, Optional);
}

/** Every option key applyOption() understands, sorted. */
const std::vector<std::string> &sweepOptionKeys();

/**
 * Apply one dotted-key override to @p options. Returns false and sets
 * @p error on an unknown key or a value of the wrong type/domain.
 */
bool applyOption(DriverOptions &options, const std::string &key,
                 const Json &value, std::string *error);

} // namespace latte::runner

#endif // LATTE_RUNNER_SWEEP_SPEC_HH
