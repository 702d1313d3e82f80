/**
 * @file
 * ExperimentRunner: executes a declarative sweep — a vector of
 * RunRequest cells — across a fixed-size thread pool.
 *
 * Determinism: outcomes are returned in request order, each cell is a
 * pure function of its RunRequest (the simulator has no global mutable
 * state and every stochastic stream is seeded from the request), and
 * the worker threads only race on *which* index they pull next — so
 * the output is bit-identical for any thread count and any completion
 * order.
 *
 * With a cache directory set, each cell is first looked up in the
 * on-disk ResultCache and only simulated on a miss; fresh Ok results
 * are persisted for the next invocation.
 *
 * Resilience (see resilience.hh): a journal path makes finished cells
 * — ok or failed — skippable on resume; a wall-clock or cycle budget
 * becomes each attempt's RunControl deadline or cycle budget, which
 * the cycle loop checks to stop a hung cell cooperatively; maxRetries
 * re-attempts Failed/TimedOut cells with exponential backoff. No cell
 * can take the sweep down: every failure is a RunOutcome, not an
 * exception or exit. Failed cells dump a diagnostics snapshot into
 * "<journal dir>/diagnostics" when a journal path is set.
 */

#ifndef LATTE_RUNNER_EXPERIMENT_RUNNER_HH
#define LATTE_RUNNER_EXPERIMENT_RUNNER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/driver.hh"
#include "metrics/latency_histogram.hh"

namespace latte::runner
{

struct RunnerOptions
{
    /** Worker threads; 0 = hardware concurrency. */
    unsigned threads = 0;
    /** On-disk result cache directory; empty = no persistent cache. */
    std::string cacheDir;
    /** Progress/ETA lines on stderr. */
    bool progress = true;

    // --- Observability -------------------------------------------------
    /**
     * Correlation prefix for every log line a cell emits: worker
     * threads push "<logContext>cell-<i>" as their log context while a
     * cell runs, so one grep for the prefix reconstructs a job's
     * lifetime across threads. The service sets "job-<id>/".
     */
    std::string logContext;

    // --- Resilience ----------------------------------------------------
    /** Sweep journal path; empty = no checkpoint/resume. */
    std::string journalPath;
    /**
     * Per-attempt wall-clock budget in ms; 0 = unlimited. A budget too
     * large for the clock (over about 292 years) is unlimited too.
     */
    std::uint64_t cellTimeoutMs = 0;
    /** Per-cell simulated-cycle budget; 0 = unlimited. Applied only to
     *  cells that don't set their own RunControl::cycleBudget. */
    std::uint64_t cellCycleBudget = 0;
    /** Extra attempts for Failed/TimedOut cells (0 = fail fast). */
    std::uint32_t maxRetries = 0;
    /** Base backoff before retry k: backoff * 2^(k-1), capped at 5 s. */
    std::uint64_t retryBackoffMs = 100;

    // --- Supervision ---------------------------------------------------
    /**
     * Sweep-level cooperative cancel (not owned; nullptr = not
     * cancellable). A tripped token only stops cells that have not
     * started: in-flight cells finish normally (so their results stay
     * cacheable) and every unstarted cell completes as a Cancelled
     * outcome without touching the cache or journal. The runner only
     * reads it: a cell's timeout is its own deadline, so one slow
     * cell never cancels another.
     */
    CancelToken *cancel = nullptr;
    /**
     * Per-cell completion hook: (request index, outcome, shortcut)
     * where shortcut is true when the cell was served from the journal
     * or disk cache rather than simulated. Invoked once per cell on
     * every completion path — executed, cache hit, journal skip,
     * cancelled — from whichever worker thread finished the cell, so
     * the callee must be thread-safe. The job service uses it to
     * stream per-cell progress events to subscribed clients.
     */
    std::function<void(std::size_t, const RunOutcome &, bool)> onCellDone;
};

class ExperimentRunner
{
  public:
    /** Per-runAll execution counters. */
    struct Stats
    {
        std::size_t executed = 0;     //!< cells actually simulated
        std::size_t cacheHits = 0;    //!< cells served from disk
        std::size_t journalSkips = 0; //!< cells resumed from journal
        std::size_t failed = 0;       //!< cells with a non-Ok outcome
        std::size_t retried = 0;      //!< cells needing >1 attempt
        /** Attempts that ended in budget but used half of it or more. */
        std::size_t nearMisses = 0;
    };

    explicit ExperimentRunner(RunnerOptions options = {});

    /**
     * Execute every request; outcomes[i] corresponds to requests[i].
     * Blocks until the whole sweep is done. Never throws for a cell
     * failure — inspect each RunOutcome.
     */
    std::vector<RunOutcome>
    runAll(const std::vector<RunRequest> &requests);

    /** Counters from the most recent runAll(). */
    const Stats &stats() const { return stats_; }

    /**
     * Wall-time distribution (milliseconds) of every cell completed by
     * the most recent runAll(), shortcut cells included. Observational
     * only — never part of results or RunKeys.
     */
    const metrics::LatencyHistogram &cellWallMs() const
    {
        return cellWallMs_;
    }

    /** The worker count a sweep of @p cells would actually use. */
    unsigned effectiveThreads(std::size_t cells) const;

    const RunnerOptions &options() const { return options_; }

  private:
    RunnerOptions options_;
    Stats stats_;
    metrics::LatencyHistogram cellWallMs_;
};

} // namespace latte::runner

#endif // LATTE_RUNNER_EXPERIMENT_RUNNER_HH
