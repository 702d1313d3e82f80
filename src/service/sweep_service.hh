/**
 * @file
 * SweepService: the job engine behind the latted daemon.
 *
 * Clients submit declarative SweepSpec jobs; the service validates
 * them, queues them with per-client quotas and priorities, and executes
 * one job at a time on the ExperimentRunner thread pool (cells within a
 * job parallelize; jobs serialize so priorities mean something). Every
 * state transition is journaled to <stateDir>/jobs.jsonl before it is
 * acknowledged, so a SIGKILLed daemon restarts with its queue intact:
 * submitted-but-unfinished jobs are requeued, and each job's own cell
 * journal (the runner's SweepJournal) resumes the sweep itself
 * cell-by-cell. Results are published atomically (tmp + rename) to
 * <stateDir>/job-<id>.result.json as the canonical outcomesToJson
 * export — byte-identical to the same spec run in-process through
 * Sweep, which is the property the service smoke test pins.
 *
 * The service layer is deliberately socket-free: latted binds it to an
 * AF_UNIX socket via RequestDispatcher/SocketServer, and the tests
 * drive it directly in-process.
 */

#ifndef LATTE_SERVICE_SWEEP_SERVICE_HH
#define LATTE_SERVICE_SWEEP_SERVICE_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "metrics/latency_histogram.hh"
#include "runner/json.hh"
#include "runner/json_fields.hh"
#include "runner/sweep_spec.hh"

namespace latte
{
struct CompressorBackend;
} // namespace latte

namespace latte::service
{

/** Lifecycle of one job. Queued/Running are live; the rest terminal. */
enum class JobState
{
    Queued,
    Running,
    Done,      //!< finished; per-cell failures live in the result doc
    Failed,    //!< the job itself failed (bad spec, unwritable result)
    Cancelled, //!< cancelled before completion
};

/** Lower-snake-case stable name ("queued", ...). */
const char *jobStateName(JobState state);

/** Reverse lookup; nullptr if @p name is unknown. */
const JobState *enumFromName(const std::string &name, JobState);
inline const char *enumName(JobState state) { return jobStateName(state); }

struct ServiceOptions
{
    /** Job journal + per-job result/journal files. Required. */
    std::string stateDir;
    /** Result cache shared with direct Sweep runs; empty = none. */
    std::string cacheDir;
    /** Worker threads per job; 0 = hardware concurrency. */
    unsigned threads = 0;
    /** Queued-job cap across all clients. */
    std::size_t maxQueue = 256;
    /** Live (queued + running) jobs allowed per client. */
    std::size_t clientQuota = 8;
    /** Progress/ETA lines from the runner (off: daemons log, not TTY). */
    bool progress = false;
    /**
     * Construct with the scheduler paused: jobs queue but nothing
     * executes until resume(). Tests use this to assert queue order,
     * quotas and journal contents deterministically.
     */
    bool startPaused = false;
};

/** Snapshot of one job, as reported to clients. */
struct JobInfo
{
    std::uint64_t id = 0;
    std::string client;
    std::int64_t priority = 0; //!< higher runs first; FIFO within equal
    JobState state = JobState::Queued;
    runner::SweepSpec spec;
    std::size_t cellsTotal = 0;
    std::size_t cellsDone = 0;     //!< cells completed (any path)
    std::size_t cellsFailed = 0;   //!< cells with a non-Ok outcome
    std::size_t cellsCached = 0;   //!< served from cache/journal
    std::size_t cellsExecuted = 0; //!< actually simulated
    /** Finished without simulating a single cell (all cache/journal). */
    bool servedFromCache = false;
    /** Canonical result document, once terminal (Done only). */
    std::string resultPath;
    /** Failure reason for Failed/Cancelled jobs. */
    std::string error;

    bool
    terminal() const
    {
        return state == JobState::Done || state == JobState::Failed ||
               state == JobState::Cancelled;
    }

    runner::Json toJson() const;
};

/** The fields a jobs.jsonl submit record carries. */
template <typename Io, runner::Of<JobInfo> S>
void
describeSubmit(Io &io, S &info)
{
    using enum runner::Presence;
    io.field("client", info.client, Optional);
    io.field("priority", info.priority, Optional);
    io.field("spec", info.spec);
}

/** The fields a jobs.jsonl done record carries. */
template <typename Io, runner::Of<JobInfo> S>
void
describeProgress(Io &io, S &info)
{
    using enum runner::Presence;
    io.field("state", info.state, Optional);
    io.field("cells_total", info.cellsTotal, Optional);
    io.field("cells_done", info.cellsDone, Optional);
    io.field("cells_failed", info.cellsFailed, Optional);
    io.field("cells_cached", info.cellsCached, Optional);
    io.field("cells_executed", info.cellsExecuted, Optional);
    io.field("served_from_cache", info.servedFromCache, Optional);
    io.field("error", info.error, Optional);
}

/** The field list of JobInfo::toJson(): both record bodies, and more. */
template <typename Io, runner::Of<JobInfo> S>
void
describe(Io &io, S &info)
{
    io.field("id", info.id);
    describeSubmit(io, info);
    describeProgress(io, info);
    io.field("result_path", info.resultPath);
}

/** Daemon-lifetime counters (monotonic; survive nothing — see journal). */
struct ServiceCounters
{
    std::uint64_t submitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    /** Jobs that finished with zero simulated cells. */
    std::uint64_t jobsServedFromCache = 0;
    /** Jobs requeued from the journal at startup. */
    std::uint64_t recovered = 0;
};

class SweepService
{
  public:
    /**
     * Replays <stateDir>/jobs.jsonl (requeueing unfinished jobs) and
     * starts the scheduler thread unless startPaused.
     */
    explicit SweepService(ServiceOptions options);

    /** Stops the scheduler; the running job is cancelled cooperatively. */
    ~SweepService();

    SweepService(const SweepService &) = delete;
    SweepService &operator=(const SweepService &) = delete;

    // --- Job lifecycle ------------------------------------------------

    /**
     * Validate, journal and enqueue @p spec. Returns the job id, or 0
     * with @p error set ("invalid spec: ...", "queue full",
     * "client quota exceeded"). The journal record is flushed before
     * this returns, so an acknowledged submit survives SIGKILL.
     */
    std::uint64_t submit(const runner::SweepSpec &spec,
                         const std::string &client,
                         std::int64_t priority, std::string *error);

    /**
     * Cancel a job. Queued jobs cancel immediately; the running job is
     * cancelled cooperatively (in-flight cells finish, the rest are
     * skipped). False with @p error on an unknown or terminal job.
     */
    bool cancel(std::uint64_t id, std::string *error);

    /** Snapshot of one job; nullopt if unknown. */
    std::optional<JobInfo> job(std::uint64_t id) const;

    /** Snapshot of every job, id order. */
    std::vector<JobInfo> jobs() const;

    /** Block until @p id is terminal. False if unknown. */
    bool waitJob(std::uint64_t id, JobInfo &out);

    /** Block until no job is queued or running (tests). */
    void waitIdle();

    /** Start executing when constructed with startPaused. */
    void resume();

    /**
     * Begin shutdown: stop scheduling, cancel the running job
     * cooperatively and wake every blocked waitJob/waitIdle caller
     * (they return the job's current, possibly non-terminal, state).
     * Idempotent; the destructor calls it and then joins. latted calls
     * it before tearing down the socket server so reader threads
     * blocked in wait requests unblock first.
     */
    void shutdown();

    // --- Introspection ------------------------------------------------

    ServiceCounters counters() const;

    /** Queued jobs right now. */
    std::size_t queueDepth() const;

    /**
     * Prometheus exposition of the service gauges (queue depth, per-
     * state job counts, uptime), the lifetime job and cell counters,
     * the job queue-wait / run-duration / cell wall-time histograms
     * and the live cell view, written by the one metrics::Exposition
     * writer that --metrics-out .prom exports use. Served verbatim by
     * both the wire "metrics" verb and the HTTP /metrics endpoint.
     */
    std::string metricsPrometheus() const;

    /**
     * Liveness summary for GET /healthz: status, uptime, queue depth,
     * the running job (if any), per-state job counts, lifetime cell
     * counters and the most recent job error.
     */
    runner::Json healthzJson() const;

    // --- Events -------------------------------------------------------

    /**
     * Register a listener for job events: {"type":"event","event":
     * "job_queued"|"job_started"|"cell_done"|"job_done", "job":id,...}.
     * Invoked from scheduler/worker threads without service locks held;
     * the callee must be thread-safe. Returns a token for removal.
     */
    using EventListener = std::function<void(const runner::Json &)>;
    std::uint64_t addListener(EventListener listener);
    void removeListener(std::uint64_t token);

    const ServiceOptions &options() const { return options_; }

  private:
    struct Job
    {
        JobInfo info;
        /** Cooperative cancel for the running job. */
        CancelToken cancelToken;
        std::chrono::steady_clock::time_point enqueuedAt;
    };

    void schedulerLoop();
    void execute(Job &job);
    /** Append one record to jobs.jsonl and flush. */
    void journal(const runner::Json &record);
    void replayJournal();
    void emitEvent(runner::Json event);
    /** Highest-priority queued job id, or 0. Caller holds mutex_. */
    std::uint64_t pickNext() const;
    std::string resultPathFor(std::uint64_t id) const;
    std::string cellJournalPathFor(std::uint64_t id) const;
    /** Journal + bookkeeping shared by every terminal transition. */
    void finishJob(Job &job, JobState state, std::string error);

    ServiceOptions options_;
    /**
     * The compression backend active when the service started. A spec's
     * compress_backend installs its backend process-wide; execute()
     * puts this one back first, so that choice ends with its job.
     */
    const CompressorBackend &startupBackend_;

    mutable std::mutex mutex_;
    std::condition_variable wake_;     //!< scheduler wakeups
    std::condition_variable changed_;  //!< waiters on job state
    std::map<std::uint64_t, Job> jobs_;
    std::uint64_t nextJobId_ = 1;
    std::uint64_t runningJob_ = 0;     //!< 0 = none
    bool paused_ = false;
    bool stop_ = false;
    ServiceCounters counters_;
    metrics::LatencyHistogram queueWaitMs_;
    metrics::LatencyHistogram runDurationMs_;
    /** Per-cell wall times folded from every finished job's runner. */
    metrics::LatencyHistogram cellWallMs_;
    // Lifetime cell counters across all jobs (mutex_-guarded).
    std::uint64_t cellsDoneTotal_ = 0;
    std::uint64_t cellsFailedTotal_ = 0;
    std::uint64_t cellsCachedTotal_ = 0;
    std::uint64_t cellsExecutedTotal_ = 0;
    std::uint64_t cellNearMissesTotal_ = 0;
    /** Most recent Failed/Cancelled job error, for /healthz. */
    std::string lastError_;
    const std::chrono::steady_clock::time_point startedAt_ =
        std::chrono::steady_clock::now();

    std::ofstream journalOut_;
    std::mutex journalMutex_;

    std::mutex listenersMutex_;
    std::map<std::uint64_t, EventListener> listeners_;
    std::uint64_t nextListener_ = 1;

    std::thread scheduler_;
};

} // namespace latte::service

#endif // LATTE_SERVICE_SWEEP_SERVICE_HH
