#include "driver.hh"

#include <algorithm>

#include "common/logging.hh"
#include "compress/backend.hh"
#include "metrics/registry.hh"
#include "sim/thread_pool.hh"

namespace latte
{

namespace
{

/** The policy catalogue: name and constructor per PolicyKind. */
struct PolicyEntry
{
    PolicyKind kind;
    const char *name;
    /** nullptr for composed policies (Kernel-OPT). */
    std::unique_ptr<Policy> (*make)(const GpuConfig &cfg);
    /**
     * Optional config rewrite a multi-level row implies (e.g. L2-LATTE
     * turns the compressed L2 on); see runOptions().
     */
    void (*adjust)(GpuConfig &cfg) = nullptr;
};

template <CompressorId mode>
std::unique_ptr<Policy>
makeStatic(const GpuConfig &cfg)
{
    return std::make_unique<StaticPolicy>(cfg, mode);
}

std::unique_ptr<Policy>
makeAdaptiveHitCount(const GpuConfig &cfg)
{
    return std::make_unique<AdaptiveHitCountPolicy>(cfg);
}

std::unique_ptr<Policy>
makeAdaptiveCmp(const GpuConfig &cfg)
{
    return std::make_unique<AdaptiveCmpPolicy>(cfg);
}

std::unique_ptr<Policy>
makeLatteCc(const GpuConfig &cfg)
{
    return std::make_unique<LatteCcPolicy>(cfg);
}

std::unique_ptr<Policy>
makeLatteCcBdiBpc(const GpuConfig &cfg)
{
    return std::make_unique<LatteCcPolicy>(
        cfg, std::vector<CompressorId>{CompressorId::None,
                                       CompressorId::Bdi,
                                       CompressorId::Bpc});
}

void
adjustL2StaticBdi(GpuConfig &cfg)
{
    cfg.l2.compress = LevelCompress::Static;
    cfg.l2.staticAlgo = CompressorId::Bdi;
}

void
adjustL2Latte(GpuConfig &cfg)
{
    cfg.l2.compress = LevelCompress::Latte;
}

constexpr PolicyEntry kPolicyTable[] = {
    {PolicyKind::Baseline, "Baseline", makeStatic<CompressorId::None>},
    {PolicyKind::StaticBdi, "Static-BDI", makeStatic<CompressorId::Bdi>},
    {PolicyKind::StaticSc, "Static-SC", makeStatic<CompressorId::Sc>},
    {PolicyKind::StaticBpc, "Static-BPC", makeStatic<CompressorId::Bpc>},
    {PolicyKind::AdaptiveHitCount, "Adaptive-Hit-Count",
     makeAdaptiveHitCount},
    {PolicyKind::AdaptiveCmp, "Adaptive-CMP", makeAdaptiveCmp},
    {PolicyKind::LatteCc, "LATTE-CC", makeLatteCc},
    {PolicyKind::LatteCcBdiBpc, "LATTE-CC-BDI-BPC", makeLatteCcBdiBpc},
    {PolicyKind::KernelOpt, "Kernel-OPT", nullptr},
    {PolicyKind::L2StaticBdi, "L2-Static-BDI",
     makeStatic<CompressorId::None>, adjustL2StaticBdi},
    {PolicyKind::L2Latte, "L2-LATTE", makeStatic<CompressorId::None>,
     adjustL2Latte},
    {PolicyKind::LatteCcL1L2, "LATTE-CC-L1L2", makeLatteCc,
     adjustL2Latte},
};

const PolicyEntry &
policyEntry(PolicyKind kind)
{
    for (const PolicyEntry &entry : kPolicyTable) {
        if (entry.kind == kind)
            return entry;
    }
    latte_panic("unknown policy kind");
}

/**
 * Register the driver-level gauges on @p metrics. The lambdas capture
 * @p gpu and @p policies by reference; runConcrete() detaches the
 * registry before they go out of scope.
 */
void
registerGauges(metrics::MetricRegistry &metrics, Gpu &gpu,
               const std::vector<std::unique_ptr<Policy>> &policies)
{
    metrics.addGauge("decomp_queue_depth", [&gpu](Cycles now) {
        std::size_t depth = 0;
        for (std::uint32_t i = 0; i < gpu.numSms(); ++i)
            depth += gpu.sm(i).cache().domain().decompDepth(now);
        return static_cast<double>(depth);
    });
    metrics.addGauge("mshr_occupancy", [&gpu](Cycles) {
        std::size_t in_use = 0;
        for (std::uint32_t i = 0; i < gpu.numSms(); ++i)
            in_use += gpu.sm(i).cache().mshrs.inUse();
        return static_cast<double>(in_use);
    });
    metrics.addGauge("dram_queue_backlog", [&gpu](Cycles now) {
        return gpu.dram().queueBacklog(now);
    });
    for (std::size_t m = 0; m < kNumModes; ++m) {
        metrics.addGauge(
            std::string("mode_accesses.") +
                compressorName(static_cast<CompressorId>(m)),
            [&policies, m](Cycles) {
                std::uint64_t n = 0;
                for (const auto &policy : policies)
                    n += policy->modeAccesses()[m];
                return static_cast<double>(n);
            });
    }
    metrics.addGauge("mode_changes", [&policies](Cycles) {
        std::uint64_t n = 0;
        for (const auto &policy : policies)
            n += policy->modeChanges();
        return static_cast<double>(n);
    });
    metrics.addGauge("sampler_vote_margin", [&policies](Cycles) {
        return policies[0]->lastVoteMargin();
    });
    metrics.addGauge("latency_tolerance", [&policies](Cycles) {
        return policies[0]->lastTolerance();
    });
    // Per-level mirrors, registered only when that level's machinery
    // exists so L1-only runs export the same gauge set as before.
    if (gpu.l2().domain()) {
        metrics.addGauge("l2.effective_capacity_bytes", [&gpu](Cycles) {
            return static_cast<double>(
                gpu.l2().domain()->effectiveCapacityBytes());
        });
        metrics.addGauge("l2.used_sub_blocks", [&gpu](Cycles) {
            return static_cast<double>(
                gpu.l2().domain()->usedSubBlocks());
        });
    }
    if (gpu.l2().controller()) {
        metrics.addGauge("l2.latency_tolerance", [&gpu](Cycles) {
            return gpu.l2().controller()->lastTolerance();
        });
        metrics.addGauge("l2.mode_changes", [&gpu](Cycles) {
            return static_cast<double>(
                gpu.l2().controller()->modeChanges());
        });
    }
}

} // namespace

const char *
policyName(PolicyKind kind)
{
    return policyEntry(kind).name;
}

const PolicyKind *
policyKindFromName(const std::string &name)
{
    for (const PolicyEntry &entry : kPolicyTable) {
        if (name == entry.name)
            return &entry.kind;
    }
    return nullptr;
}

DriverOptions
runOptions(const RunRequest &request)
{
    DriverOptions options = request.options;
    if (const auto *kind = std::get_if<PolicyKind>(&request.policy)) {
        if (const auto adjust = policyEntry(*kind).adjust)
            adjust(options.cfg);
    }
    return options;
}

std::unique_ptr<Policy>
makePolicy(PolicyKind kind, const GpuConfig &cfg)
{
    const PolicyEntry &entry = policyEntry(kind);
    if (!entry.make) {
        latte_panic("{} is composed by the driver, not a provider",
                    entry.name);
    }
    return entry.make(cfg);
}

std::string
runRequestLabel(const RunRequest &request)
{
    // A non-empty label is authoritative for every naming surface
    // (results, cache keys, journal keys, metric labels); the policy
    // catalogue name is only the fallback for catalogued runs.
    if (!request.label.empty())
        return request.label;
    if (const auto *kind = std::get_if<PolicyKind>(&request.policy))
        return policyName(*kind);
    return "Custom";
}

const WorkloadRunResult &
RunOutcome::value() const
{
    latte_assert(result.has_value(),
                 "RunOutcome::value() on a {} outcome: {}",
                 runStatusName(status), to_string(error));
    return *result;
}

RunOutcome
RunOutcome::success(WorkloadRunResult result)
{
    RunOutcome outcome;
    outcome.status = RunStatus::Ok;
    outcome.result = std::move(result);
    return outcome;
}

RunOutcome
RunOutcome::failure(RunError error)
{
    RunOutcome outcome;
    outcome.status = runStatusForCode(error.code);
    outcome.error = std::move(error);
    return outcome;
}

RunStatus
runStatusForCode(RunErrorCode code)
{
    switch (code) {
      case RunErrorCode::None:
        return RunStatus::Ok;
      case RunErrorCode::WallClockTimeout:
      case RunErrorCode::CycleBudgetExceeded:
        return RunStatus::TimedOut;
      case RunErrorCode::Cancelled:
        return RunStatus::Cancelled;
      default:
        return RunStatus::Failed;
    }
}

double
WorkloadRunResult::avgTolerance() const
{
    if (trace.empty())
        return 0.0;
    double sum = 0;
    for (const auto &point : trace)
        sum += point.latencyTolerance;
    return sum / static_cast<double>(trace.size());
}

namespace
{

/** The cell context of @p request, stamped onto every RunError. */
RunError
cellError(const RunRequest &request, RunErrorCode code,
          std::string message, Cycles cycle = 0)
{
    RunError error;
    error.code = code;
    error.message = std::move(message);
    error.workload = request.workload ? request.workload->abbr : "";
    error.policyLabel = runRequestLabel(request);
    error.seed = request.seed;
    error.cycle = cycle;
    return error;
}

/** One concrete (non-oracle) run. */
RunOutcome
runConcrete(const RunRequest &request, const PolicyFactory &factory,
            PolicyKind kind)
{
    const Workload &workload = *request.workload;
    const DriverOptions &options = request.options;

    MemoryImage mem;
    workload.setup(mem);

    Gpu gpu(options.cfg, &mem, options.tuning, request.tracer);
    gpu.setControl(&request.control);

    std::vector<std::unique_ptr<Policy>> policies;
    policies.reserve(gpu.numSms());
    for (std::uint32_t i = 0; i < gpu.numSms(); ++i) {
        auto policy = factory(gpu.config());
        auto &sm = gpu.sm(i);
        policy->bind(&sm.cache(), &sm.engines(), &sm.meter());
        policy->setTracer(request.tracer,
                          static_cast<std::uint16_t>(i));
        sm.cache().setModeProvider(policy.get());
        policies.push_back(std::move(policy));
    }

    if (request.metrics) {
        request.metrics->attachStats(&gpu);
        registerGauges(*request.metrics, gpu, policies);
        gpu.setMetrics(request.metrics);
    }

    auto sum_mode_accesses = [&]() {
        std::array<std::uint64_t, kNumModes> sums{};
        for (const auto &policy : policies) {
            const auto &counts = policy->modeAccesses();
            for (std::size_t m = 0; m < kNumModes; ++m)
                sums[m] += counts[m];
        }
        return sums;
    };

    WorkloadRunResult result;
    result.workload = workload.abbr;
    result.policy = kind;
    result.policyLabel = runRequestLabel(request);
    result.seed = request.seed;

    auto kernels = makeKernels(workload, request.seed);
    UsageCounts prev_usage = harvestUsage(gpu);
    std::uint64_t prev_hits = 0, prev_misses = 0;
    auto prev_modes = sum_mode_accesses();

    std::optional<RunError> failure;
    for (auto &kernel : kernels) {
        const RunResult run = gpu.runKernel(
            *kernel, options.maxInstructionsPerKernel);

        if (run.interrupt) {
            failure = cellError(
                request, run.interrupt->code,
                strfmt("kernel {}: {}", kernel->name(),
                       run.interrupt->detail),
                run.interrupt->cycle);
            break;
        }

        KernelSnapshot snap;
        snap.name = kernel->name();
        snap.cycles = run.cycles;
        snap.instructions = run.instructions;
        const UsageCounts usage = harvestUsage(gpu);
        snap.usage = usage - prev_usage;
        prev_usage = usage;
        const std::uint64_t hits = gpu.totalL1Hits();
        const std::uint64_t misses = gpu.totalL1Misses();
        snap.hits = hits - prev_hits;
        snap.misses = misses - prev_misses;
        prev_hits = hits;
        prev_misses = misses;
        const auto modes = sum_mode_accesses();
        for (std::size_t m = 0; m < kNumModes; ++m)
            snap.modeAccesses[m] = modes[m] - prev_modes[m];
        prev_modes = modes;

        result.kernels.push_back(std::move(snap));
    }

    result.cycles = gpu.cyclesElapsed.count();
    result.instructions = gpu.totalInstructions();
    result.hits = gpu.totalL1Hits();
    result.misses = gpu.totalL1Misses();
    result.modeAccesses = sum_mode_accesses();
    result.trace = policies[0]->trace();
    if (const L2CompressionController *l2c = gpu.l2().controller()) {
        // Merge the L2 controller's per-EP trace into the SM-0 policy
        // trace: each point carries the newest L2 decision at or
        // before its cycle. The two EP clocks tick on different access
        // streams, so this is a time-aligned join, not an index join.
        const auto &l2trace = l2c->trace();
        std::size_t next = 0;
        for (PolicyTracePoint &point : result.trace) {
            while (next < l2trace.size() &&
                   l2trace[next].cycle <= point.cycle)
                ++next;
            point.hasL2 = true;
            if (next > 0) {
                point.l2Mode = l2trace[next - 1].mode;
                point.l2Tolerance = l2trace[next - 1].latencyTolerance;
            }
        }
    }
    gpu.collect(result.stats);

    const EnergyModel energy_model(gpu.config());
    result.energy = energy_model.compute(harvestUsage(gpu));

    if (request.metrics) {
        // Flush a final row, then detach: the gauges reference this
        // frame's gpu and policies.
        request.metrics->finalSample(gpu.now());
        gpu.setMetrics(nullptr);
        request.metrics->detach();
    }

    if (failure)
        return RunOutcome::failure(std::move(*failure));
    return RunOutcome::success(std::move(result));
}

/** Kernel-OPT: per-kernel best of the three static modes. */
RunOutcome
runKernelOpt(const RunRequest &request)
{
    const PolicyKind static_kinds[] = {
        PolicyKind::Baseline, PolicyKind::StaticBdi, PolicyKind::StaticSc};
    const CompressorId static_modes[] = {
        CompressorId::None, CompressorId::Bdi, CompressorId::Sc};

    std::vector<WorkloadRunResult> runs;
    runs.reserve(3);
    for (const PolicyKind kind : static_kinds) {
        RunRequest leg = request;
        leg.policy = kind;
        leg.label.clear(); // legs are internal; keep catalogue names
        RunOutcome outcome = runConcrete(
            leg,
            [kind](const GpuConfig &cfg) { return makePolicy(kind, cfg); },
            kind);
        if (!outcome.ok()) {
            // A failed leg fails the oracle cell; re-stamp the error
            // with the composed cell's label so the journal and the
            // result JSON blame the right cell.
            outcome.error.policyLabel = runRequestLabel(request);
            return outcome;
        }
        runs.push_back(std::move(*outcome.result));
    }

    WorkloadRunResult result;
    result.workload = request.workload->abbr;
    result.policy = PolicyKind::KernelOpt;
    result.policyLabel = runRequestLabel(request);
    result.seed = request.seed;

    const std::size_t n_kernels = runs[0].kernels.size();
    UsageCounts total_usage;
    for (std::size_t k = 0; k < n_kernels; ++k) {
        std::size_t best = 0;
        for (std::size_t p = 1; p < 3; ++p) {
            if (runs[p].kernels[k].cycles < runs[best].kernels[k].cycles)
                best = p;
        }
        const KernelSnapshot &snap = runs[best].kernels[k];
        result.kernels.push_back(snap);
        result.kernelBestModes.push_back(static_modes[best]);
        result.cycles += snap.cycles;
        result.instructions += snap.instructions;
        result.hits += snap.hits;
        result.misses += snap.misses;
        total_usage += snap.usage;
    }

    const EnergyModel energy_model(request.options.cfg);
    result.energy = energy_model.compute(total_usage);
    return RunOutcome::success(std::move(result));
}

} // namespace

RunOutcome
run(const RunRequest &original)
{
    // Multi-level catalogue rows imply a config rewrite (turning the
    // compressed L2 on); the cell runs with the rewritten options.
    RunRequest request = original;
    request.options = runOptions(original);
    if (request.workload == nullptr) {
        return RunOutcome::failure(cellError(
            request, RunErrorCode::InvalidRequest,
            "RunRequest needs a workload"));
    }
    if (const auto error = request.options.cfg.validationError()) {
        return RunOutcome::failure(cellError(
            request, RunErrorCode::InvalidConfig,
            strfmt("invalid GpuConfig: {}", *error)));
    }
    if (!request.options.compressBackend.empty()) {
        std::string backend_error;
        const CompressorBackend *backend = resolveCompressorBackend(
            request.options.compressBackend, &backend_error);
        if (!backend) {
            return RunOutcome::failure(cellError(
                request, RunErrorCode::InvalidConfig, backend_error));
        }
        setCompressorBackend(*backend);
    }
    // --sim-threads is ignored, but a malformed value still fails the
    // cell.
    std::string threads_error;
    if (resolveSimThreads(request.options.simThreads, &threads_error) ==
        0) {
        return RunOutcome::failure(cellError(
            request, RunErrorCode::InvalidConfig, threads_error));
    }

    RunOutcome outcome;
    if (const auto *kind = std::get_if<PolicyKind>(&request.policy)) {
        if (*kind == PolicyKind::KernelOpt) {
            outcome = runKernelOpt(request);
        } else {
            const PolicyKind k = *kind;
            outcome = runConcrete(
                request,
                [k](const GpuConfig &cfg) { return makePolicy(k, cfg); },
                k);
        }
    } else {
        outcome = runConcrete(request,
                              std::get<PolicyFactory>(request.policy),
                              PolicyKind::Baseline);
    }
    return outcome;
}

double
speedupOver(const WorkloadRunResult &baseline,
            const WorkloadRunResult &result)
{
    latte_assert(result.cycles > 0);
    return static_cast<double>(baseline.cycles) /
           static_cast<double>(result.cycles);
}

} // namespace latte
