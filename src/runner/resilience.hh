/**
 * @file
 * The resilience subsystem of sweep execution:
 *
 *  - SweepJournal: an append-only on-disk manifest of completed cells,
 *    keyed by the RunKey fingerprint. Each finished cell (ok or not)
 *    appends one JSONL record; on --resume the journal is replayed and
 *    finished cells are skipped — ok cells are served from the result
 *    cache, failures are reconstructed from the journal — so a sweep
 *    SIGKILLed mid-run resumes to a byte-identical final export.
 *    A truncated trailing line (the kill landed mid-write) degrades to
 *    "cell not finished", never to a wrong result.
 *
 *  - RetryPolicy: bounded retry-with-backoff for failed cells.
 *
 * The per-cell wall-clock budget needs no code here: the runner gives
 * each attempt a RunControl::deadline, and the GPU cycle loop checks
 * it next to the cycle budget.
 */

#ifndef LATTE_RUNNER_RESILIENCE_HH
#define LATTE_RUNNER_RESILIENCE_HH

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "core/driver.hh"

namespace latte::runner
{

/** Bounded retry-with-backoff for transiently failing cells. */
struct RetryPolicy
{
    /** Extra attempts after the first failure (0 = fail fast). */
    std::uint32_t maxRetries = 0;
    /** Sleep before retry k is backoffMs * 2^(k-1), capped below. */
    std::uint64_t backoffMs = 100;
    std::uint64_t maxBackoffMs = 5'000;

    /** Whether a @p status outcome is worth another attempt. */
    bool
    shouldRetry(RunStatus status, std::uint32_t attempt) const
    {
        if (attempt > maxRetries)
            return false;
        // External cancellation is a decision, not a transient fault.
        return status == RunStatus::Failed ||
               status == RunStatus::TimedOut;
    }

    std::uint64_t
    backoffForRetry(std::uint32_t retry) const
    {
        std::uint64_t backoff = backoffMs;
        for (std::uint32_t i = 1; i < retry && backoff < maxBackoffMs;
             ++i)
            backoff *= 2;
        return std::min(backoff, maxBackoffMs);
    }
};

/**
 * Append-only manifest of finished sweep cells. Thread-safe: workers
 * record cells concurrently; each record is one flushed JSONL line, so
 * a SIGKILL loses at most the line being written.
 */
class SweepJournal
{
  public:
    /** Opens @p path for append, replaying any existing records. */
    explicit SweepJournal(std::string path);

    /**
     * The recorded outcome of @p fingerprint, if that cell finished in
     * a previous (or this) invocation. Ok entries carry no result body
     * — the result lives in the result cache; failures are complete.
     */
    std::optional<RunOutcome> find(const std::string &fingerprint) const;

    /** Append one finished cell (the result body is not journaled). */
    void record(const std::string &fingerprint,
                const RunOutcome &outcome);

    /** Records loaded from disk plus records appended this run. */
    std::size_t size() const;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    mutable std::mutex mutex_;
    std::map<std::string, RunOutcome> entries_;
    std::ofstream out_;
};

} // namespace latte::runner

#endif // LATTE_RUNNER_RESILIENCE_HH
