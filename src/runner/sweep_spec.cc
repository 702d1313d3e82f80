#include "sweep_spec.hh"

#include <algorithm>

#include "common/logging.hh"
#include "compress/backend.hh"
#include "result_cache.hh"
#include "sim/thread_pool.hh"
#include "workloads/zoo.hh"

namespace latte::runner
{

namespace
{

bool
setError(std::string *error, std::string text)
{
    if (error)
        *error = std::move(text);
    return false;
}

/** One settable DriverOptions knob. */
struct OptionEntry
{
    const char *key;
    bool (*apply)(DriverOptions &, const Json &, std::string *);
};

/** Decode a numeric knob through the shared codec of its field type. */
template <typename Field>
bool
applyNumber(Field &field, const char *key, const Json &value,
            std::string *error)
{
    std::string problem;
    if (!decodeJson(value, field, &problem))
        return setError(error, std::string(key) + ": " + problem);
    return true;
}

// Each entry is a lambda decayed to a function pointer: no captures, so
// the table stays constexpr-friendly and cheap to scan.
#define LATTE_NUMBER_OPTION(KEY, FIELD)                                  \
    {KEY, [](DriverOptions &o, const Json &v, std::string *e) {          \
         return applyNumber(o.FIELD, KEY, v, e);                         \
     }}

const OptionEntry kOptionTable[] = {
    LATTE_NUMBER_OPTION("max_instructions_per_kernel",
                      maxInstructionsPerKernel),
    // --- SM organisation ---
    LATTE_NUMBER_OPTION("cfg.num_sms", cfg.numSms),
    LATTE_NUMBER_OPTION("cfg.max_warps_per_sm", cfg.maxWarpsPerSm),
    LATTE_NUMBER_OPTION("cfg.max_blocks_per_sm", cfg.maxBlocksPerSm),
    LATTE_NUMBER_OPTION("cfg.schedulers_per_sm", cfg.schedulersPerSm),
    // --- L1 ---
    LATTE_NUMBER_OPTION("cfg.l1_size_bytes", cfg.l1.sizeBytes),
    LATTE_NUMBER_OPTION("cfg.l1_line_bytes", cfg.l1.lineBytes),
    LATTE_NUMBER_OPTION("cfg.l1_assoc", cfg.l1.assoc),
    LATTE_NUMBER_OPTION("cfg.l1_hit_latency", cfg.l1.hitLatency),
    LATTE_NUMBER_OPTION("cfg.l1_tag_factor", cfg.l1.tagFactor),
    LATTE_NUMBER_OPTION("cfg.l1_sub_block_bytes", cfg.l1.subBlockBytes),
    LATTE_NUMBER_OPTION("cfg.l1_mshr_entries", cfg.l1.mshrEntries),
    // --- L2 / DRAM ---
    LATTE_NUMBER_OPTION("cfg.l2_size_bytes", cfg.l2.sizeBytes),
    LATTE_NUMBER_OPTION("cfg.l2_assoc", cfg.l2.assoc),
    LATTE_NUMBER_OPTION("cfg.l2_banks", cfg.l2.banks),
    LATTE_NUMBER_OPTION("cfg.l2_min_latency", cfg.l2.minLatency),
    LATTE_NUMBER_OPTION("cfg.l2_bank_service_cycles",
                      cfg.l2.bankServiceCycles),
    LATTE_NUMBER_OPTION("cfg.l2_miss_penalty_cycles",
                      cfg.l2.missPenaltyCycles),
    LATTE_NUMBER_OPTION("cfg.dram_min_latency", cfg.dramMinLatency),
    LATTE_NUMBER_OPTION("cfg.dram_bytes_per_cycle",
                        cfg.dramBytesPerCycle),
    LATTE_NUMBER_OPTION("cfg.noc_bytes_per_cycle", cfg.nocBytesPerCycle),
    // --- LATTE-CC controller ---
    LATTE_NUMBER_OPTION("cfg.latte.ep_accesses", cfg.latte.epAccesses),
    LATTE_NUMBER_OPTION("cfg.latte.period_eps", cfg.latte.periodEps),
    LATTE_NUMBER_OPTION("cfg.latte.learning_eps", cfg.latte.learningEps),
    LATTE_NUMBER_OPTION("cfg.latte.dedicated_sets_per_mode",
                      cfg.latte.dedicatedSetsPerMode),
    LATTE_NUMBER_OPTION("cfg.latte.vft_entries", cfg.latte.vftEntries),
    // --- Enumerated knobs (string-valued) ---
    {"cfg.sched_policy",
     [](DriverOptions &o, const Json &v, std::string *e) {
         if (v.type() != Json::Type::String)
             return setError(e, "cfg.sched_policy: expected a string");
         const std::string &name = v.asString();
         if (name == "gto")
             o.cfg.schedPolicy = GpuConfig::SchedPolicy::GTO;
         else if (name == "lrr")
             o.cfg.schedPolicy = GpuConfig::SchedPolicy::LRR;
         else
             return setError(e, "cfg.sched_policy: unknown scheduler '" +
                                    name + "' (gto|lrr)");
         return true;
     }},
    {"cfg.l1_repl",
     [](DriverOptions &o, const Json &v, std::string *e) {
         if (v.type() != Json::Type::String)
             return setError(e, "cfg.l1_repl: expected a string");
         const std::string &name = v.asString();
         if (name == "lru")
             o.cfg.l1Repl = GpuConfig::ReplPolicy::LRU;
         else if (name == "fifo")
             o.cfg.l1Repl = GpuConfig::ReplPolicy::FIFO;
         else if (name == "srrip")
             o.cfg.l1Repl = GpuConfig::ReplPolicy::SRRIP;
         else
             return setError(e, "cfg.l1_repl: unknown policy '" + name +
                                    "' (lru|fifo|srrip)");
         return true;
     }},
    {"l2.compress",
     [](DriverOptions &o, const Json &v, std::string *e) {
         if (v.type() != Json::Type::String)
             return setError(e, "l2.compress: expected a string");
         if (!parseLevelCompressSpec(v.asString(), o.cfg.l2)) {
             return setError(e, "l2.compress: bad spec '" +
                                    v.asString() +
                                    "' (off|static:<algo>|latte)");
         }
         // Semantic restrictions (SC below the L1, dedicated-set
         // geometry) are left to GpuConfig::validationError() so they
         // surface as structured per-cell outcomes.
         return true;
     }},
    {"link.compress",
     [](DriverOptions &o, const Json &v, std::string *e) {
         if (v.type() != Json::Type::String)
             return setError(e, "link.compress: expected a string");
         if (!parseLinkCompressSpec(v.asString(), o.cfg.linkCompress)) {
             return setError(e, "link.compress: bad spec '" +
                                    v.asString() + "' (off|<algo>)");
         }
         return true;
     }},
    {"compress_backend",
     [](DriverOptions &o, const Json &v, std::string *e) {
         if (v.type() != Json::Type::String)
             return setError(e, "compress_backend: expected a string");
         // Validated against the backend registry here so a backend
         // this host lacks fails at submit time, not per cell. The
         // resolved backend is execution speed only (bit-identical
         // results) and is excluded from the RunKey fingerprint.
         std::string resolve_error;
         if (!resolveCompressorBackend(v.asString(), &resolve_error))
             return setError(e, "compress_backend: " + resolve_error);
         o.compressBackend = v.asString();
         return true;
     }},
    {"sim_threads",
     [](DriverOptions &o, const Json &v, std::string *e) {
         if (v.type() != Json::Type::String)
             return setError(e, "sim_threads: expected a string");
         // Accepted for compatibility and ignored, but validated here
         // so a bad spelling still fails at submit time, not per cell.
         // Excluded from the RunKey fingerprint.
         std::string resolve_error;
         if (resolveSimThreads(v.asString(), &resolve_error) == 0)
             return setError(e, "sim_threads: " + resolve_error);
         o.simThreads = v.asString();
         return true;
     }},
};

#undef LATTE_NUMBER_OPTION

/** Human-readable axis value for cell labels ("32768", "lrr"). */
std::string
valueLabel(const Json &value)
{
    if (value.type() == Json::Type::String)
        return value.asString();
    return value.dump();
}

} // namespace

const std::vector<std::string> &
sweepOptionKeys()
{
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> out;
        for (const OptionEntry &entry : kOptionTable)
            out.push_back(entry.key);
        std::sort(out.begin(), out.end());
        return out;
    }();
    return keys;
}

bool
applyOption(DriverOptions &options, const std::string &key,
            const Json &value, std::string *error)
{
    for (const OptionEntry &entry : kOptionTable) {
        if (key == entry.key)
            return entry.apply(options, value, error);
    }
    return setError(error, "unknown option key '" + key + "'");
}

std::string
SweepSpec::validate() const
{
    std::string error;
    for (const std::string &abbr : workloads) {
        if (!findWorkload(abbr))
            return "unknown workload '" + abbr + "'";
    }
    if (policies.empty())
        return "spec names no policies";
    for (const std::string &policy : policies) {
        if (!policyKindFromName(policy))
            return "unknown policy '" + policy + "'";
    }

    // Fixed overrides and axis values must all apply cleanly to a
    // scratch DriverOptions, so bad values surface at submit time
    // rather than as per-cell failures mid-sweep.
    DriverOptions scratch;
    for (const auto &[key, value] : options) {
        if (!applyOption(scratch, key, value, &error))
            return error;
    }
    std::vector<std::string> seen;
    for (const SweepAxis &axis : axes) {
        if (axis.values.empty())
            return "axis '" + axis.key + "' has no values";
        if (std::find(seen.begin(), seen.end(), axis.key) != seen.end())
            return "axis '" + axis.key + "' declared twice";
        seen.push_back(axis.key);
        if (options.count(axis.key))
            return "axis '" + axis.key +
                   "' also appears in fixed options";
        for (const Json &value : axis.values) {
            if (!applyOption(scratch, axis.key, value, &error))
                return error;
        }
    }
    return "";
}

std::size_t
SweepSpec::cellCount() const
{
    std::size_t cells = workloads.empty() ? workloadZoo().size()
                                          : workloads.size();
    cells *= policies.size();
    cells *= seeds.empty() ? 1 : seeds.size();
    for (const SweepAxis &axis : axes)
        cells *= axis.values.size();
    return cells;
}

bool
SweepSpec::expand(std::vector<RunRequest> &out, std::string *error,
                  const DriverOptions &base) const
{
    const std::string problem = validate();
    if (!problem.empty())
        return setError(error, problem);

    // Resolve the workload set (empty = whole zoo, Table III order).
    std::vector<const Workload *> resolved;
    if (workloads.empty()) {
        for (const Workload &workload : workloadZoo())
            resolved.push_back(&workload);
    } else {
        for (const std::string &abbr : workloads)
            resolved.push_back(findWorkload(abbr));
    }

    DriverOptions fixed = base;
    for (const auto &[key, value] : options) {
        if (!applyOption(fixed, key, value, error))
            return false;
    }

    const std::vector<std::uint64_t> seed_list =
        seeds.empty() ? std::vector<std::uint64_t>{0} : seeds;

    // Odometer over the axes: first axis is the slowest-moving digit.
    std::vector<std::size_t> digits(axes.size(), 0);
    const std::size_t combos = [&] {
        std::size_t n = 1;
        for (const SweepAxis &axis : axes)
            n *= axis.values.size();
        return n;
    }();

    for (const Workload *workload : resolved) {
        for (std::size_t combo = 0; combo < combos; ++combo) {
            // Decode this combination and build its options + label.
            std::size_t rest = combo;
            for (std::size_t a = axes.size(); a-- > 0;) {
                digits[a] = rest % axes[a].values.size();
                rest /= axes[a].values.size();
            }
            DriverOptions cell_options = fixed;
            std::string suffix;
            for (std::size_t a = 0; a < axes.size(); ++a) {
                const Json &value = axes[a].values[digits[a]];
                if (!applyOption(cell_options, axes[a].key, value,
                                 error))
                    return false;
                if (!suffix.empty())
                    suffix += ",";
                suffix += axes[a].key + "=" + valueLabel(value);
            }

            for (const std::string &policy : policies) {
                for (const std::uint64_t seed : seed_list) {
                    RunRequest &request = out.emplace_back();
                    request.workload = workload;
                    request.policy = *policyKindFromName(policy);
                    request.options = cell_options;
                    request.seed = seed;
                    // Axis cells get a "Policy[axis=value]" label so
                    // every grid point stays distinguishable in
                    // exports, cache keys and journal keys; plain
                    // specs leave the label empty and stay
                    // cache-compatible with hand-built requests.
                    if (!suffix.empty())
                        request.label = policy + "[" + suffix + "]";
                }
            }
        }
    }
    return true;
}

Json
SweepSpec::toJson() const
{
    return encodeJson(*this);
}

bool
SweepSpec::fromJson(const Json &json, SweepSpec &spec,
                    std::string *error)
{
    spec = SweepSpec{};
    return decodeJson(json, spec, error);
}

std::uint64_t
SweepSpec::hash() const
{
    return fnv1a(toJson().dump());
}

} // namespace latte::runner
