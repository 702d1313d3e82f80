#include "sweep.hh"

#include <chrono>
#include <fstream>

#include "common/logging.hh"
#include "json.hh"
#include "metrics/profiler.hh"
#include "metrics/registry.hh"
#include "trace/sink.hh"

namespace latte::runner
{

namespace
{

RunnerOptions
toRunnerOptions(const SweepCliOptions &cli)
{
    if (!cli.resumePath.empty() && cli.cacheDir.empty())
        latte_warn("--resume without --cache-dir: finished ok cells "
                   "have no stored results and will re-run");
    return RunnerOptions{
        .threads = cli.jobs,
        .cacheDir = cli.cacheDir,
        .progress = cli.progress,
        .journalPath = cli.resumePath,
        .cellTimeoutMs = cli.cellTimeoutMs,
        .cellCycleBudget = cli.cellCycleBudget,
        .maxRetries = cli.retries,
        .retryBackoffMs = cli.retryBackoffMs,
    };
}

} // namespace

Sweep::Sweep(int &argc, char **argv, DriverOptions defaults)
    : Sweep(parseSweepArgs(argc, argv), std::move(defaults))
{}

Sweep::Sweep(SweepCliOptions cli, DriverOptions defaults)
    : defaults_(std::move(defaults)), runner_(toRunnerOptions(cli)),
      jsonPath_(cli.jsonPath), traceOut_(cli.traceOut),
      timelineOut_(cli.timelineOut), metricsOut_(cli.metricsOut),
      metricsInterval_(cli.metricsInterval), benchOut_(cli.benchOut)
{
    if (cli.profile)
        metrics::setProfilerEnabled(true);
    // --compress-backend already switched the process-wide dispatch at
    // parse time; recording it here makes every cell's result envelope
    // carry the name (it is not part of the result-cache key).
    if (!cli.compressBackend.empty())
        defaults_.compressBackend = cli.compressBackend;
    // --l2-compress / --link-compress change simulated behaviour (and
    // thus the cell fingerprints, via the config JSON); both were
    // syntax-validated at parse time.
    if (!cli.l2Compress.empty())
        parseLevelCompressSpec(cli.l2Compress, defaults_.cfg.l2);
    if (!cli.linkCompress.empty())
        parseLinkCompressSpec(cli.linkCompress,
                              defaults_.cfg.linkCompress);
    // --sim-threads is accepted for compatibility and ignored; it was
    // validated at parse time and is not cache-keyed.
    if (!cli.simThreads.empty())
        defaults_.simThreads = cli.simThreads;
}

void
Sweep::addBenchExtra(const std::string &key, Json value)
{
    benchExtra_[key] = std::move(value);
}

Sweep::~Sweep()
{
    writeJson();
    writeTrace();
    writeTimeline();
    writeMetrics();
    writeBench();
}

void
Sweep::add(const Workload &workload, PolicyKind kind)
{
    add(workload, kind, defaults_);
}

void
Sweep::add(const Workload &workload, PolicyKind kind,
           const DriverOptions &options)
{
    RunRequest request;
    request.workload = &workload;
    request.policy = kind;
    request.options = options;
    add(std::move(request));
}

void
Sweep::add(RunRequest request)
{
    indexOf(request);
}

void
Sweep::add(const SweepSpec &spec)
{
    std::vector<RunRequest> cells;
    std::string error;
    if (!spec.expand(cells, &error, defaults_))
        latte_fatal("invalid sweep spec{}{}: {}",
                    spec.name.empty() ? "" : " ",
                    spec.name, error);
    for (RunRequest &cell : cells)
        add(std::move(cell));
}

std::size_t
Sweep::indexOf(const RunRequest &request)
{
    const RunKey key = RunKey::of(request);
    const auto it = index_.find(key);
    if (it != index_.end())
        return it->second;

    const std::size_t slot = requests_.size();
    requests_.push_back(request);
    outcomes_.emplace_back();
    done_.push_back(false);
    // Under --trace-out every cell records into its own flight
    // recorder; a non-null tracer also makes the runner bypass the
    // disk cache, so events are always produced.
    tracers_.push_back(traceOut_.empty()
                           ? nullptr
                           : std::make_unique<Tracer>(kCellTraceCapacity));
    requests_.back().tracer = tracers_.back().get();
    // Same deal for --metrics-out: a per-cell registry (cells run on
    // worker threads, so sharing one would race) that also forces a
    // real simulation.
    metrics_.push_back(metricsOut_.empty()
                           ? nullptr
                           : std::make_unique<metrics::MetricRegistry>(
                                 metricsInterval_));
    requests_.back().metrics = metrics_.back().get();
    pending_.push_back(slot);
    index_.emplace(key, slot);
    return slot;
}

void
Sweep::run()
{
    if (pending_.empty())
        return;

    std::vector<RunRequest> batch;
    batch.reserve(pending_.size());
    for (const std::size_t slot : pending_)
        batch.push_back(requests_[slot]);

    const auto start = std::chrono::steady_clock::now();
    std::vector<RunOutcome> batch_outcomes = runner_.runAll(batch);
    runSeconds_ += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        outcomes_[pending_[i]] = std::move(batch_outcomes[i]);
        done_[pending_[i]] = true;
    }
    pending_.clear();
}

const WorkloadRunResult &
Sweep::get(const Workload &workload, PolicyKind kind)
{
    return get(workload, kind, defaults_);
}

const WorkloadRunResult &
Sweep::get(const Workload &workload, PolicyKind kind,
           const DriverOptions &options)
{
    RunRequest request;
    request.workload = &workload;
    request.policy = kind;
    request.options = options;
    return get(request);
}

const WorkloadRunResult &
Sweep::get(const RunRequest &request)
{
    const RunOutcome &cell = outcome(request);
    if (!cell.ok()) {
        // get() is the binary boundary of the failure-as-values API:
        // callers asking for the numbers of a cell that has none get a
        // diagnostic exit, not a dangling reference.
        latte_fatal("sweep cell {}/{} seed {} did not finish: {}",
                    cell.error.workload, cell.error.policyLabel,
                    cell.error.seed, to_string(cell.error));
    }
    return cell.value();
}

const RunOutcome &
Sweep::outcome(const Workload &workload, PolicyKind kind)
{
    return outcome(workload, kind, defaults_);
}

const RunOutcome &
Sweep::outcome(const Workload &workload, PolicyKind kind,
               const DriverOptions &options)
{
    RunRequest request;
    request.workload = &workload;
    request.policy = kind;
    request.options = options;
    return outcome(request);
}

const RunOutcome &
Sweep::outcome(const RunRequest &request)
{
    const std::size_t slot = indexOf(request);
    if (!done_[slot])
        run();
    return outcomes_[slot];
}

void
Sweep::writeJson() const
{
    if (jsonPath_.empty())
        return;

    metrics::ProfileScope profile(metrics::ProfileZone::RunnerSerialize);
    // Every finished cell is exported, failed ones included: a partial
    // sweep still yields a complete document whose failed cells carry
    // their cause and retry history in the outcome envelope.
    std::vector<RunOutcome> finished;
    for (std::size_t i = 0; i < outcomes_.size(); ++i) {
        if (done_[i])
            finished.push_back(outcomes_[i]);
    }

    std::ofstream out(jsonPath_);
    if (!out) {
        latte_warn("cannot write --json file {}", jsonPath_);
        return;
    }
    out << outcomesToJson(finished).dump(2) << "\n";
}

void
Sweep::writeTrace() const
{
    if (traceOut_.empty())
        return;

    std::ofstream out(traceOut_);
    if (!out) {
        latte_warn("cannot write --trace-out file {}", traceOut_);
        return;
    }
    ChromeTraceSink sink(out);
    for (std::size_t i = 0; i < outcomes_.size(); ++i) {
        if (!done_[i] || !tracers_[i] || !outcomes_[i].result)
            continue;
        const WorkloadRunResult &result = *outcomes_[i].result;
        std::string label = result.workload + "/" + result.policyLabel;
        if (result.seed != 0)
            label += strfmt("/seed{}", result.seed);
        sink.writeRun(label, *tracers_[i]);
    }
    sink.finish();
}

void
Sweep::writeTimeline() const
{
    if (timelineOut_.empty())
        return;

    std::vector<WorkloadRunResult> finished;
    for (std::size_t i = 0; i < outcomes_.size(); ++i) {
        if (done_[i] && outcomes_[i].result)
            finished.push_back(*outcomes_[i].result);
    }

    std::ofstream out(timelineOut_);
    if (!out) {
        latte_warn("cannot write --timeline-out file {}", timelineOut_);
        return;
    }
    out << timelineToJson(finished).dump(2) << "\n";
}

void
Sweep::writeMetrics() const
{
    if (metricsOut_.empty())
        return;

    // Cells that share workload, policy and seed differ in their
    // options, so the RunKey's config hash tells their series apart.
    std::vector<metrics::LabeledRegistry> runs;
    for (std::size_t i = 0; i < outcomes_.size(); ++i) {
        if (!done_[i] || !metrics_[i] || !outcomes_[i].result)
            continue;
        const WorkloadRunResult &result = *outcomes_[i].result;
        metrics::MetricLabels labels = {
            {"workload", result.workload},
            {"policy", result.policyLabel},
        };
        if (result.seed != 0)
            labels.emplace_back("seed", strfmt("{}", result.seed));
        labels.emplace_back("config",
                            RunKey::of(requests_[i]).configHex());
        runs.push_back({metrics_[i].get(), std::move(labels)});
    }
    if (!metrics::writeMetricsOut(metricsOut_, runs))
        latte_warn("cannot write --metrics-out file {}", metricsOut_);
}

void
Sweep::writeBench() const
{
    if (benchOut_.empty())
        return;

    std::uint64_t cycles = 0, instructions = 0, accesses = 0;
    std::size_t cells = 0;
    for (std::size_t i = 0; i < outcomes_.size(); ++i) {
        if (!done_[i] || !outcomes_[i].result)
            continue;
        const WorkloadRunResult &result = *outcomes_[i].result;
        ++cells;
        cycles += result.cycles;
        instructions += result.instructions;
        accesses += result.hits + result.misses;
    }

    const ExperimentRunner::Stats &stats = runner_.stats();
    Json::Object report;
    report["schema"] = "latte-bench-v1";
    report["cells"] = static_cast<std::uint64_t>(cells);
    report["executed"] = static_cast<std::uint64_t>(stats.executed);
    report["cache_hits"] = static_cast<std::uint64_t>(stats.cacheHits);
    report["journal_skips"] =
        static_cast<std::uint64_t>(stats.journalSkips);
    report["failed_cells"] = static_cast<std::uint64_t>(stats.failed);
    report["retried_cells"] = static_cast<std::uint64_t>(stats.retried);
    report["threads"] = runner_.effectiveThreads(cells ? cells : 1);
    report["wall_seconds"] = runSeconds_;
    report["sim_cycles"] = cycles;
    report["sim_instructions"] = instructions;
    report["l1_accesses"] = accesses;
    report["cycles_per_second"] =
        runSeconds_ > 0 ? static_cast<double>(cycles) / runSeconds_ : 0.0;
    report["instructions_per_second"] =
        runSeconds_ > 0 ? static_cast<double>(instructions) / runSeconds_
                        : 0.0;
    report["near_miss_cells"] =
        static_cast<std::uint64_t>(stats.nearMisses);

    // Cell wall-time distribution of this sweep, in milliseconds.
    {
        const metrics::LatencyHistogram &wall = runner_.cellWallMs();
        Json::Object wallJson;
        wallJson["count"] = wall.count();
        wallJson["p50_ms"] = wall.percentile(50.0);
        wallJson["p90_ms"] = wall.percentile(90.0);
        wallJson["max_ms"] = wall.max();
        report["cell_wall_ms"] = Json(std::move(wallJson));
    }

    for (const auto &[key, value] : benchExtra_)
        report[key] = value;

    std::ofstream out(benchOut_);
    if (!out) {
        latte_warn("cannot write --bench-out file {}", benchOut_);
        return;
    }
    out << Json(std::move(report)).dump(2) << "\n";
}

} // namespace latte::runner
