#include "experiment_runner.hh"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>

#include "common/logging.hh"
#include "json.hh"
#include "metrics/live.hh"
#include "metrics/profiler.hh"
#include "progress.hh"
#include "resilience.hh"
#include "result_cache.hh"
#include "trace/tracer.hh"

namespace latte::runner
{

namespace
{

/** Make a cell label safe to use as a file name. */
std::string
sanitizeLabel(std::string label)
{
    for (char &c : label) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '.';
        if (!ok)
            c = '_';
    }
    return label;
}

/**
 * The deadline @p budgetMs after @p now, saturated to "never" when the
 * budget does not fit the clock (steady_clock counts nanoseconds, so
 * about 292 years is the most it can add).
 */
RunControl::Clock::time_point
deadlineAfter(RunControl::Clock::time_point now, std::uint64_t budgetMs)
{
    using Clock = RunControl::Clock;
    const auto room = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::time_point::max() - now);
    if (budgetMs >= static_cast<std::uint64_t>(room.count()))
        return Clock::time_point::max();
    return now + std::chrono::milliseconds(budgetMs);
}

/** Retained trace events included in a diagnostics snapshot. */
constexpr std::size_t kDiagTraceTail = 64;

/**
 * Dump a correlation-tagged JSON snapshot of a failed cell: the outcome
 * envelope plus whatever observational state the process holds at that
 * moment (profiler zones, trace tail). Best-effort — a write failure is
 * a warning, never an error, and the snapshot is never read back by the
 * runner itself.
 */
void
writeDiagnostics(const std::string &dir, std::size_t index,
                 const std::string &cell, const RunRequest &request,
                 const RunOutcome &outcome, double wallMs)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);

    Json::Object doc;
    doc.emplace("schema", "latte-diag-v1");
    doc.emplace("context", logContext());
    doc.emplace("cell", cell);
    doc.emplace("cell_index", static_cast<std::uint64_t>(index));
    doc.emplace("workload", request.workload ? request.workload->abbr
                                             : std::string());
    doc.emplace("policy", runRequestLabel(request));
    doc.emplace("seed", static_cast<std::uint64_t>(request.seed));
    doc.emplace("wall_ms", wallMs);

    RunOutcome envelope = outcome;
    envelope.result.reset();
    doc.emplace("outcome", toJson(envelope));

    if (metrics::profilerEnabled()) {
        const auto zones = metrics::profilerSnapshot();
        Json::Object zonesJson;
        for (std::size_t z = 0; z < zones.size(); ++z) {
            Json::Object zone;
            zone.emplace("calls", zones[z].calls);
            zone.emplace("nanos", zones[z].nanos);
            zonesJson.emplace(
                metrics::profileZoneName(
                    static_cast<metrics::ProfileZone>(z)),
                Json(std::move(zone)));
        }
        doc.emplace("profiler_zones", Json(std::move(zonesJson)));
    }

    if (request.tracer) {
        const std::size_t total = request.tracer->size();
        const std::size_t skip =
            total > kDiagTraceTail ? total - kDiagTraceTail : 0;
        std::size_t seen = 0;
        Json::Array tail;
        request.tracer->forEach([&](const TraceEvent &event) {
            if (seen++ < skip)
                return;
            Json::Object entry;
            entry.emplace("ts", static_cast<std::uint64_t>(event.ts));
            entry.emplace("kind", traceEventKindName(event.kind));
            entry.emplace("arg0", event.arg0);
            entry.emplace("arg1", event.arg1);
            entry.emplace("value", event.value);
            entry.emplace("sm", static_cast<std::uint64_t>(event.sm));
            tail.push_back(Json(std::move(entry)));
        });
        doc.emplace("trace_tail", Json(std::move(tail)));
        doc.emplace("trace_recorded", request.tracer->recorded());
        doc.emplace("trace_dropped", request.tracer->dropped());
    }

    const std::string path = dir + "/" + sanitizeLabel(cell) + "-" +
                             std::to_string(index) + ".json";
    std::ofstream out(path);
    if (!out) {
        latte_warn("diagnostics: cannot write {}", path);
        return;
    }
    out << Json(std::move(doc)).dump(2) << "\n";
    latte_inform("cell {} failed; diagnostics snapshot at {}", cell,
                 path);
}

} // namespace

ExperimentRunner::ExperimentRunner(RunnerOptions options)
    : options_(std::move(options))
{}

unsigned
ExperimentRunner::effectiveThreads(std::size_t cells) const
{
    unsigned threads = options_.threads;
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    if (cells < threads)
        threads = static_cast<unsigned>(cells);
    return threads ? threads : 1;
}

std::vector<RunOutcome>
ExperimentRunner::runAll(const std::vector<RunRequest> &requests)
{
    stats_ = Stats{};
    cellWallMs_ = metrics::LatencyHistogram();
    std::vector<RunOutcome> outcomes(requests.size());
    if (requests.empty())
        return outcomes;

    std::unique_ptr<ResultCache> cache;
    if (!options_.cacheDir.empty())
        cache = std::make_unique<ResultCache>(options_.cacheDir);
    std::unique_ptr<SweepJournal> journal;
    if (!options_.journalPath.empty())
        journal = std::make_unique<SweepJournal>(options_.journalPath);

    // Failed cells dump a diagnostics snapshot next to the journal.
    std::string diag_dir;
    if (!options_.journalPath.empty())
        diag_dir = (std::filesystem::path(options_.journalPath)
                        .parent_path() /
                    "diagnostics")
                       .string();

    const RetryPolicy retry{.maxRetries = options_.maxRetries,
                            .backoffMs = options_.retryBackoffMs};

    const unsigned threads = effectiveThreads(requests.size());
    ProgressReporter progress(requests.size(), threads,
                              options_.progress);

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> executed{0};
    std::atomic<std::size_t> cache_hits{0};
    std::atomic<std::size_t> journal_skips{0};
    std::atomic<std::size_t> failed{0};
    std::atomic<std::size_t> retried{0};
    std::atomic<std::size_t> near_misses{0};
    std::mutex wall_mutex;
    metrics::LatencyHistogram wall_ms;

    // One cell, all attempts: each attempt gets its own wall-clock
    // deadline, the runner's cycle budget when the request sets none,
    // and only the fault points armed for that attempt number — so a
    // transient FaultPoint{firstAttempts=1} clears on retry.
    const std::uint64_t timeout_ms = options_.cellTimeoutMs;
    auto attemptCell = [&](const RunRequest &request,
                           const std::string &cell_name) -> RunOutcome {
        std::vector<RunError> history;
        for (std::uint32_t attempt = 1;; ++attempt) {
            RunRequest attempt_request = request;
            attempt_request.control.faults =
                request.control.faults.armedFor(attempt);
            if (attempt_request.control.cycleBudget == 0)
                attempt_request.control.cycleBudget =
                    options_.cellCycleBudget;
            const auto started = RunControl::Clock::now();
            if (timeout_ms > 0)
                attempt_request.control.deadline =
                    std::min(attempt_request.control.deadline,
                             deadlineAfter(started, timeout_ms));

            RunOutcome outcome = run(attempt_request);
            if (timeout_ms > 0) {
                const auto elapsed_ms = static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        RunControl::Clock::now() - started)
                        .count());
                if (outcome.error.code == RunErrorCode::WallClockTimeout) {
                    latte_warn("{} exceeded its {} ms wall-clock budget",
                               cell_name, timeout_ms);
                } else if (elapsed_ms * 2 >= timeout_ms) {
                    // Ended in budget after using half of it or more:
                    // the early warning that --cell-timeout will bite.
                    near_misses.fetch_add(1, std::memory_order_relaxed);
                    latte_warn("near-miss: {} took {} ms of a {} ms budget",
                               cell_name, elapsed_ms, timeout_ms);
                }
            }
            outcome.attempts = attempt;
            outcome.retryHistory = history;
            if (outcome.ok() ||
                !retry.shouldRetry(outcome.status, attempt))
                return outcome;

            history.push_back(outcome.error);
            const std::uint64_t backoff = retry.backoffForRetry(attempt);
            if (backoff > 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(backoff));
        }
    };

    auto worker = [&]() {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= requests.size())
                return;
            const RunRequest &request = requests[i];
            const auto start = std::chrono::steady_clock::now();

            // Every log line this cell emits — from the runner, the
            // simulator or the retry machinery — carries the same
            // correlation id.
            LogScope cell_ctx(options_.logContext + "cell-" +
                              std::to_string(i));

            const std::string cell_name =
                (request.workload ? request.workload->abbr
                                  : std::string("?")) +
                "/" + runRequestLabel(request);

            // Sweep-level cancel: cells not yet started complete as
            // Cancelled outcomes without touching cache or journal
            // (the journal treats Cancelled as re-runnable, and these
            // cells never ran). In-flight cells finish normally.
            if (options_.cancel && options_.cancel->cancelled()) {
                RunError error;
                error.code = RunErrorCode::Cancelled;
                error.message = "sweep cancelled before the cell started";
                error.workload =
                    request.workload ? request.workload->abbr : "";
                error.policyLabel = runRequestLabel(request);
                error.seed = request.seed;
                outcomes[i] = RunOutcome::failure(std::move(error));
                failed.fetch_add(1, std::memory_order_relaxed);
                if (options_.onCellDone)
                    options_.onCellDone(i, outcomes[i], false);
                progress.completed(cell_name, 0.0, true);
                continue;
            }

            bool shortcut = false;
            // An observed request must actually simulate — a disk hit
            // would return the result without producing any events,
            // metric samples or profile time — so the cache is
            // bypassed entirely for every observational output
            // (tracer, metric registry, self-profiler). None of them
            // is part of RunKey, and an observed result must not
            // shadow an unobserved one. A request with injected faults
            // shares its fingerprint with the healthy cell, so it must
            // touch neither the cache nor the journal.
            const bool observed = request.tracer != nullptr ||
                                  request.metrics != nullptr ||
                                  metrics::profilerEnabled();
            const bool faulted = !request.control.faults.empty();
            const bool keyed = !observed && !faulted &&
                               request.workload != nullptr;

            const RunKey key =
                keyed && (cache || journal) ? RunKey::of(request) : RunKey{};

            bool done = false;
            if (keyed && journal) {
                // The journal gates resume: ok cells are served from
                // the result cache (the journal stores no result
                // bytes), terminal failures are reconstructed as-is,
                // and Cancelled cells — the user interrupted, not the
                // cell — run again.
                if (auto entry = journal->find(key.fingerprint())) {
                    if (entry->ok()) {
                        if (cache) {
                            if (auto hit = cache->lookup(key)) {
                                outcomes[i] = std::move(*hit);
                                outcomes[i].attempts = entry->attempts;
                                outcomes[i].retryHistory =
                                    entry->retryHistory;
                                done = shortcut = true;
                                journal_skips.fetch_add(
                                    1, std::memory_order_relaxed);
                            }
                        }
                    } else if (entry->status != RunStatus::Cancelled) {
                        outcomes[i] = std::move(*entry);
                        done = shortcut = true;
                        journal_skips.fetch_add(
                            1, std::memory_order_relaxed);
                        failed.fetch_add(1, std::memory_order_relaxed);
                    }
                }
            }
            if (!done && keyed && cache) {
                if (auto hit = cache->lookup(key)) {
                    outcomes[i] = std::move(*hit);
                    done = shortcut = true;
                    cache_hits.fetch_add(1, std::memory_order_relaxed);
                    if (journal &&
                        !journal->find(key.fingerprint()))
                        journal->record(key.fingerprint(), outcomes[i]);
                }
            }
            if (!done) {
                // Register with the live-metrics surface so a /metrics
                // scrape mid-run sees this cell's cycle/instruction
                // progress (the Gpu publishes into the thread's slot).
                metrics::live::CellScope live(cell_name);
                outcomes[i] = attemptCell(request, cell_name);
                executed.fetch_add(1, std::memory_order_relaxed);
                if (!outcomes[i].ok())
                    failed.fetch_add(1, std::memory_order_relaxed);
                if (outcomes[i].attempts > 1)
                    retried.fetch_add(1, std::memory_order_relaxed);
                if (keyed) {
                    if (cache && outcomes[i].ok())
                        cache->store(key, outcomes[i]);
                    if (journal)
                        journal->record(key.fingerprint(), outcomes[i]);
                }
            }

            if (options_.onCellDone)
                options_.onCellDone(i, outcomes[i], shortcut);

            const double seconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            {
                std::lock_guard<std::mutex> lock(wall_mutex);
                wall_ms.record(seconds * 1e3);
            }
            if (!diag_dir.empty() && !shortcut && !outcomes[i].ok() &&
                outcomes[i].status != RunStatus::Cancelled)
                writeDiagnostics(diag_dir, i, cell_name, request,
                                 outcomes[i], seconds * 1e3);
            progress.completed(cell_name, seconds, shortcut);
        }
    };

    if (threads == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back([&worker, t] {
                setLogThreadName(strfmt("run-w{}", t));
                worker();
            });
        for (std::thread &thread : pool)
            thread.join();
    }

    stats_.executed = executed.load();
    stats_.cacheHits = cache_hits.load();
    stats_.journalSkips = journal_skips.load();
    stats_.failed = failed.load();
    stats_.retried = retried.load();
    stats_.nearMisses = near_misses.load();
    cellWallMs_ = wall_ms;
    return outcomes;
}

} // namespace latte::runner
