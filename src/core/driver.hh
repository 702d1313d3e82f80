/**
 * @file
 * The simulation driver: builds a GPU, binds one policy instance per SM,
 * runs a workload's kernel sequence and collects the metrics every
 * experiment in the paper needs (cycles, misses, energy, per-kernel
 * snapshots, per-EP traces). Also implements the Kernel-OPT oracle of
 * Section V-B by composing per-kernel-best static runs.
 *
 * The single entrypoint is `run(RunRequest)`; a request names a
 * workload, a policy (either a catalogued PolicyKind or a custom
 * PolicyFactory), the machine configuration, and optionally a Tracer
 * that records structured events for the observability layer.
 *
 * run() returns a RunOutcome, never throws and never exits: invalid
 * requests, injected faults, cancellations, passed deadlines and
 * budget trips all come back as structured RunError values a
 * supervising layer (sweep runner, journal, CI gate) can act on.
 */

#ifndef LATTE_CORE_DRIVER_HH
#define LATTE_CORE_DRIVER_HH

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/outcome.hh"
#include "energy/energy_model.hh"
#include "policies.hh"
#include "workloads/zoo.hh"

namespace latte
{

namespace metrics
{
class MetricRegistry;
} // namespace metrics

/** Every policy configuration the paper evaluates. */
enum class PolicyKind
{
    Baseline,
    StaticBdi,
    StaticSc,
    StaticBpc,
    AdaptiveHitCount,
    AdaptiveCmp,
    LatteCc,
    LatteCcBdiBpc,
    KernelOpt,
    /** Uncompressed L1 over a static-BDI compressed L2. */
    L2StaticBdi,
    /** Uncompressed L1 over a latte-adaptive compressed L2. */
    L2Latte,
    /** LATTE-CC at the L1 and latte at the L2, both adaptive. */
    LatteCcL1L2,
};

const char *policyName(PolicyKind kind);

/** Reverse of policyName(); nullptr if @p name is not a known kind. */
const PolicyKind *policyKindFromName(const std::string &name);

/** Construct a policy instance of @p kind (not valid for KernelOpt). */
std::unique_ptr<Policy> makePolicy(PolicyKind kind, const GpuConfig &cfg);

/** Builds one policy instance per SM. */
using PolicyFactory =
    std::function<std::unique_ptr<Policy>(const GpuConfig &)>;

/** Metrics of one kernel launch within a run. */
struct KernelSnapshot
{
    std::string name;
    Cycles cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    UsageCounts usage;
    std::array<std::uint64_t, kNumModes> modeAccesses{};
};

/** Metrics of a whole workload run under one policy. */
struct WorkloadRunResult
{
    std::string workload;
    PolicyKind policy = PolicyKind::Baseline;
    /**
     * Display name of the policy that produced this result: the
     * policyName() of `policy` for catalogued runs, or the RunRequest
     * label for custom-factory runs.
     */
    std::string policyLabel;
    /** The RunRequest seed the run was produced with (0 = defaults). */
    std::uint64_t seed = 0;
    Cycles cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    EnergyReport energy;
    std::vector<KernelSnapshot> kernels;
    /** KernelOpt only: the oracle's per-kernel mode choice. */
    std::vector<CompressorId> kernelBestModes;
    /** Per-EP trace from SM 0's policy (tolerance, mode, capacity). */
    std::vector<PolicyTracePoint> trace;
    std::array<std::uint64_t, kNumModes> modeAccesses{};
    /** Full stat dump (StatGroup::collect); empty for Kernel-OPT. */
    std::map<std::string, double> stats;

    double
    missRate() const
    {
        const std::uint64_t total = hits + misses;
        return total ? static_cast<double>(misses) /
                           static_cast<double>(total)
                     : 0.0;
    }

    double avgTolerance() const;
};

/** Run-wide knobs. */
struct DriverOptions
{
    GpuConfig cfg{};
    CacheTuning tuning{};
    std::uint64_t maxInstructionsPerKernel = 50'000'000;
    /**
     * Compression kernel backend ("auto", "scalar", "avx2";
     * empty keeps the process-wide selection). Execution speed only:
     * every backend is pinned bit-identical, so this is deliberately
     * NOT part of the result-cache fingerprint — a cached result is
     * valid whichever backend computed it.
     */
    std::string compressBackend;
    /**
     * The `--sim-threads` value ("auto", a positive integer, or empty
     * = LATTE_SIM_THREADS / default 1): accepted for compatibility;
     * ignored. run() still rejects a malformed value as InvalidConfig.
     * Not part of the result-cache fingerprint.
     */
    std::string simThreads;
};

/** A policy selection: a catalogued kind or a custom per-SM factory. */
using PolicySpec = std::variant<PolicyKind, PolicyFactory>;

/**
 * One cell of an experiment sweep: workload x policy x configuration.
 * Self-contained and copyable so sweeps can be queued, hashed for the
 * on-disk result cache, and executed on any thread in any order.
 */
struct RunRequest
{
    /** Workload to run; must outlive the request (zoo entries do). */
    const Workload *workload = nullptr;
    PolicySpec policy = PolicyKind::Baseline;
    DriverOptions options{};
    /**
     * Authoritative result label. When non-empty it names the cell
     * everywhere a name is used — result JSON, cache keys, journal
     * keys and metric labels — for PolicyKind and custom-factory runs
     * alike. Empty falls back to policyName(kind) for catalogued runs
     * and "Custom" for factories.
     */
    std::string label;
    /**
     * Deterministic per-request seed. 0 keeps the workload's baked-in
     * kernel seeds; any other value remixes every kernel's RNG stream
     * so replicated cells draw independent access patterns while
     * remaining bit-reproducible.
     */
    std::uint64_t seed = 0;
    /**
     * Optional event recorder (not owned; must outlive the run). The
     * driver wires it through every SM, the L2, the DRAM model and the
     * per-SM policies. Purely observational: it never alters results
     * and is NOT part of the result-cache key.
     */
    Tracer *tracer = nullptr;
    /**
     * Optional metric registry (not owned; must outlive the run). The
     * driver attaches the GPU's stat tree, registers the simulation
     * gauges (queue depths, MSHR occupancy, mode residency, vote
     * margins) and samples the registry periodically from the kernel
     * loop. Like the tracer it is purely observational: results stay
     * bit-identical and it is NOT part of the result-cache key.
     * Kernel-OPT runs its three static legs against the same registry
     * in sequence, so sample cycles restart at each leg boundary.
     */
    metrics::MetricRegistry *metrics = nullptr;
    /**
     * Cooperative run control: cancellation token, simulated-cycle
     * budget and the fault-injection schedule. The driver threads it
     * into the GPU cycle loop, which polls it and winds down cleanly
     * when it trips. Not part of the result-cache key; a request with
     * a non-empty fault plan additionally bypasses the cache.
     */
    RunControl control;
};

/** The label a request's result will carry (label or policy name). */
std::string runRequestLabel(const RunRequest &request);

/**
 * The options @p request simulates with: its own, after the catalogue
 * row's config rewrite (L2-LATTE turns the compressed L2 on).
 */
DriverOptions runOptions(const RunRequest &request);

/**
 * The outcome of one run(): a status, a structured error (code None
 * when ok) and the result when one was produced. The sweep runner adds
 * the retry bookkeeping: attempts > 1 with status Ok is the
 * Retried->Ok path, and retryHistory keeps the error of every failed
 * attempt that preceded the final one.
 */
struct RunOutcome
{
    RunStatus status = RunStatus::Ok;
    RunError error;
    std::optional<WorkloadRunResult> result;
    /** Total attempts the runner made (1 = first try). */
    std::uint32_t attempts = 1;
    /** Errors of the failed attempts that preceded the last one. */
    std::vector<RunError> retryHistory;
    /**
     * Accepted for compatibility; ignored. Fresh runs record 1; an
     * outcome restored from an older cache entry or journal keeps the
     * value it was saved with. Never part of the cell fingerprint.
     */
    std::uint32_t simThreads = 1;

    bool ok() const { return status == RunStatus::Ok; }

    /** The result; panics if the run did not produce one. */
    const WorkloadRunResult &value() const;

    static RunOutcome success(WorkloadRunResult result);
    /** Status is derived from the error code. */
    static RunOutcome failure(RunError error);
};

/** The RunStatus a failure with @p code reports. */
RunStatus runStatusForCode(RunErrorCode code);

/**
 * Run one request. Validates the GpuConfig, dispatches Kernel-OPT
 * composition, and fills every WorkloadRunResult field including the
 * flattened stat dump. Never throws, exits or aborts on a bad request:
 * every failure — invalid configuration, cancellation, budget trip,
 * injected fault — is returned as a structured RunOutcome.
 */
RunOutcome run(const RunRequest &request);

/** Speedup of @p result over @p baseline (cycles ratio). */
double speedupOver(const WorkloadRunResult &baseline,
                   const WorkloadRunResult &result);

} // namespace latte

#endif // LATTE_CORE_DRIVER_HH
