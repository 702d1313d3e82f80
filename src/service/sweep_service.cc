#include "sweep_service.hh"

#include <filesystem>
#include <sstream>

#include <unistd.h>

#include "common/logging.hh"
#include "compress/backend.hh"
#include "metrics/exposition.hh"
#include "metrics/live.hh"
#include "runner/experiment_runner.hh"

namespace latte::service
{

namespace
{

struct StateEntry
{
    JobState state;
    const char *name;
};

const StateEntry kStateTable[] = {
    {JobState::Queued, "queued"},     {JobState::Running, "running"},
    {JobState::Done, "done"},         {JobState::Failed, "failed"},
    {JobState::Cancelled, "cancelled"},
};

double
millisSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

const char *
jobStateName(JobState state)
{
    for (const StateEntry &entry : kStateTable) {
        if (entry.state == state)
            return entry.name;
    }
    latte_panic("unknown JobState {}", static_cast<int>(state));
}

const JobState *
enumFromName(const std::string &name, JobState)
{
    for (const StateEntry &entry : kStateTable) {
        if (name == entry.name)
            return &entry.state;
    }
    return nullptr;
}

runner::Json
JobInfo::toJson() const
{
    return runner::encodeJson(*this);
}

SweepService::SweepService(ServiceOptions options)
    : options_(std::move(options)),
      startupBackend_(activeCompressorBackend()),
      paused_(options_.startPaused)
{
    latte_assert(!options_.stateDir.empty(),
                 "SweepService needs a state directory");
    std::error_code ec;
    std::filesystem::create_directories(options_.stateDir, ec);
    if (ec)
        latte_fatal("latted: cannot create state dir {} ({})",
                    options_.stateDir, ec.message());

    replayJournal();

    const std::string journal_path = options_.stateDir + "/jobs.jsonl";
    journalOut_.open(journal_path, std::ios::app);
    if (!journalOut_)
        latte_fatal("latted: cannot append to {}", journal_path);

    scheduler_ = std::thread([this] { schedulerLoop(); });
}

SweepService::~SweepService()
{
    shutdown();
    if (scheduler_.joinable())
        scheduler_.join();
}

void
SweepService::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
        // Cooperatively wind down the running job; its unstarted cells
        // become Cancelled outcomes and the job is requeued from the
        // journal on the next start.
        if (runningJob_ != 0)
            jobs_.at(runningJob_).cancelToken.cancel();
    }
    wake_.notify_all();
    changed_.notify_all();
}

std::string
SweepService::resultPathFor(std::uint64_t id) const
{
    return strfmt("{}/job-{}.result.json", options_.stateDir, id);
}

std::string
SweepService::cellJournalPathFor(std::uint64_t id) const
{
    return strfmt("{}/job-{}.journal.jsonl", options_.stateDir, id);
}

void
SweepService::journal(const runner::Json &record)
{
    std::lock_guard<std::mutex> lock(journalMutex_);
    journalOut_ << record.dump() << "\n";
    journalOut_.flush();
}

void
SweepService::replayJournal()
{
    const std::string path = options_.stateDir + "/jobs.jsonl";
    std::ifstream in(path);
    if (!in)
        return;

    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::string error;
        const runner::Json record = runner::Json::parse(line, &error);
        if (!error.empty()) {
            // A truncated trailing line is the expected SIGKILL residue
            // and degrades to "record never happened"; the submit ack
            // is only sent after the flush, so no acknowledged job is
            // lost this way.
            latte_warn("latted: ignoring unparsable journal line ({})",
                       error);
            continue;
        }
        // Decoded into a copy and applied only when every field it
        // carries is well-formed.
        std::string type;
        std::uint64_t id = 0;
        JobInfo info;
        const auto read = [&](runner::FieldReader &io) {
            io.field("type", type);
            io.field("job", id);
            if (type == "submit") {
                describeSubmit(io, info);
            } else if (type == "done" && jobs_.count(id)) {
                info = jobs_.at(id).info;
                describeProgress(io, info);
            }
        };
        if (!runner::decodeJson(record, read, &error)) {
            latte_warn("latted: skipping journal record ({})", error);
            continue;
        }
        const auto it = jobs_.find(id);
        if (type == "submit") {
            info.id = id;
            info.cellsTotal = info.spec.cellCount();
            // try_emplace: Job holds a CancelToken (atomics), so it is
            // built in place rather than moved.
            Job &job = jobs_.try_emplace(id).first->second;
            job.info = std::move(info);
            job.enqueuedAt = std::chrono::steady_clock::now();
            nextJobId_ = std::max(nextJobId_, id + 1);
        } else if (type == "done" && it != jobs_.end()) {
            if (info.state == JobState::Done)
                info.resultPath = resultPathFor(id);
            it->second.info = std::move(info);
        } else if (type == "cancel" && it != jobs_.end() &&
                   !it->second.info.terminal()) {
            it->second.info.state = JobState::Cancelled;
            it->second.info.error = "cancelled before restart";
        }
    }

    // Everything still Queued (or caught mid-Running by the kill) is
    // requeued; the per-job cell journal resumes the sweep itself.
    for (auto &[id, job] : jobs_) {
        if (job.info.state == JobState::Running)
            job.info.state = JobState::Queued;
        if (job.info.state == JobState::Queued)
            ++counters_.recovered;
    }
}

std::uint64_t
SweepService::submit(const runner::SweepSpec &spec,
                     const std::string &client, std::int64_t priority,
                     std::string *error)
{
    const std::string problem = spec.validate();
    if (!problem.empty()) {
        if (error)
            *error = "invalid spec: " + problem;
        std::lock_guard<std::mutex> lock(mutex_);
        ++counters_.rejected;
        return 0;
    }

    runner::Json record;
    std::uint64_t id = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::size_t queued = 0, live = 0;
        for (const auto &[job_id, job] : jobs_) {
            if (job.info.state == JobState::Queued)
                ++queued;
            if (!job.info.terminal() && job.info.client == client)
                ++live;
        }
        if (queued >= options_.maxQueue) {
            if (error)
                *error = "queue full";
            ++counters_.rejected;
            return 0;
        }
        if (live >= options_.clientQuota) {
            if (error)
                *error = "client quota exceeded";
            ++counters_.rejected;
            return 0;
        }

        id = nextJobId_++;
        Job &job = jobs_.try_emplace(id).first->second;
        job.info.id = id;
        job.info.client = client;
        job.info.priority = priority;
        job.info.spec = spec;
        job.info.cellsTotal = spec.cellCount();
        job.enqueuedAt = std::chrono::steady_clock::now();
        ++counters_.submitted;

        runner::FieldWriter writer;
        writer.field("type", std::string("submit"));
        writer.field("job", id);
        describeSubmit(writer, job.info);
        record = writer.take();
    }

    // Flushed before the caller sees the id: an acknowledged submit
    // survives SIGKILL.
    journal(record);

    runner::Json::Object event;
    event["event"] = runner::Json("job_queued");
    event["job"] = runner::Json(id);
    event["client"] = runner::Json(client);
    emitEvent(runner::Json(std::move(event)));

    wake_.notify_all();
    return id;
}

bool
SweepService::cancel(std::uint64_t id, std::string *error)
{
    bool queued_cancel = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = jobs_.find(id);
        if (it == jobs_.end()) {
            if (error)
                *error = "unknown job";
            return false;
        }
        Job &job = it->second;
        if (job.info.terminal()) {
            if (error)
                *error = "job already " +
                         std::string(jobStateName(job.info.state));
            return false;
        }
        if (job.info.state == JobState::Running) {
            // Cooperative: unstarted cells are skipped, in-flight cells
            // finish; execute() observes the token and marks the job.
            job.cancelToken.cancel();
        } else {
            job.info.state = JobState::Cancelled;
            job.info.error = "cancelled";
            ++counters_.cancelled;
            queued_cancel = true;
        }
    }

    runner::Json::Object record;
    record["type"] = runner::Json("cancel");
    record["job"] = runner::Json(id);
    journal(runner::Json(std::move(record)));

    if (queued_cancel) {
        runner::Json::Object event;
        event["event"] = runner::Json("job_done");
        event["job"] = runner::Json(id);
        event["state"] = runner::Json("cancelled");
        emitEvent(runner::Json(std::move(event)));
        changed_.notify_all();
    }
    return true;
}

std::optional<JobInfo>
SweepService::job(std::uint64_t id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return std::nullopt;
    return it->second.info;
}

std::vector<JobInfo>
SweepService::jobs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<JobInfo> out;
    out.reserve(jobs_.size());
    for (const auto &[id, job] : jobs_)
        out.push_back(job.info);
    return out;
}

bool
SweepService::waitJob(std::uint64_t id, JobInfo &out)
{
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    changed_.wait(lock,
                  [&] { return stop_ || it->second.info.terminal(); });
    out = it->second.info;
    return true;
}

void
SweepService::waitIdle()
{
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait(lock, [&] {
        if (stop_)
            return true;
        if (runningJob_ != 0)
            return false;
        for (const auto &[id, job] : jobs_) {
            if (job.info.state == JobState::Queued)
                return false;
        }
        return true;
    });
}

void
SweepService::resume()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        paused_ = false;
    }
    wake_.notify_all();
}

ServiceCounters
SweepService::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

std::size_t
SweepService::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t queued = 0;
    for (const auto &[id, job] : jobs_) {
        if (job.info.state == JobState::Queued)
            ++queued;
    }
    return queued;
}

std::string
SweepService::metricsPrometheus() const
{
    metrics::Exposition out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // kStateTable is in JobState order.
        std::size_t perState[std::size(kStateTable)] = {};
        for (const auto &[id, job] : jobs_)
            ++perState[static_cast<std::size_t>(job.info.state)];
        out.gauge("service_uptime_seconds", {},
                  std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - startedAt_)
                      .count());
        out.gauge("service_queue_depth", {},
                  perState[static_cast<std::size_t>(JobState::Queued)]);
        out.gauge("service_jobs_running", {},
                  runningJob_ != 0 ? 1.0 : 0.0);
        for (std::size_t s = 0; s < std::size(kStateTable); ++s)
            out.gauge("service_jobs", {{"state", kStateTable[s].name}},
                      perState[s]);
        out.counter("service_jobs_submitted_total", {},
                    counters_.submitted);
        out.counter("service_jobs_rejected_total", {}, counters_.rejected);
        out.counter("service_jobs_completed_total", {},
                    counters_.completed);
        out.counter("service_jobs_failed_total", {}, counters_.failed);
        out.counter("service_jobs_cancelled_total", {},
                    counters_.cancelled);
        out.counter("service_jobs_served_from_cache_total", {},
                    counters_.jobsServedFromCache);
        out.counter("service_jobs_recovered_total", {},
                    counters_.recovered);
        out.counter("service_cells_done_total", {}, cellsDoneTotal_);
        out.counter("service_cells_failed_total", {}, cellsFailedTotal_);
        out.counter("service_cells_cached_total", {}, cellsCachedTotal_);
        out.counter("service_cells_executed_total", {},
                    cellsExecutedTotal_);
        out.counter("service_cell_near_misses_total", {},
                    cellNearMissesTotal_);
        out.histogram("service_job_queue_wait_ms", {}, queueWaitMs_);
        out.histogram("service_job_run_ms", {}, runDurationMs_);
        out.histogram("service_cell_wall_ms", {}, cellWallMs_);
    }
    // Live mid-run gauges ride along, so the wire "metrics" verb and
    // GET /metrics serve identical text.
    metrics::live::expose(out);
    std::ostringstream os;
    out.write(os);
    return os.str();
}

runner::Json
SweepService::healthzJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);

    runner::Json::Object doc;
    doc["status"] = runner::Json(stop_ ? "shutting_down" : "ok");
    doc["uptime_seconds"] = runner::Json(
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - startedAt_)
            .count());

    std::size_t queued = 0;
    runner::Json::Object states;
    for (const StateEntry &entry : kStateTable) {
        std::uint64_t n = 0;
        for (const auto &[id, job] : jobs_) {
            if (job.info.state == entry.state)
                ++n;
        }
        states[entry.name] = runner::Json(n);
        if (entry.state == JobState::Queued)
            queued = n;
    }
    doc["queue_depth"] =
        runner::Json(static_cast<std::uint64_t>(queued));
    doc["running_job"] = runner::Json(runningJob_);
    doc["jobs"] = runner::Json(std::move(states));

    runner::Json::Object cells;
    cells["done"] = runner::Json(cellsDoneTotal_);
    cells["failed"] = runner::Json(cellsFailedTotal_);
    cells["cached"] = runner::Json(cellsCachedTotal_);
    cells["executed"] = runner::Json(cellsExecutedTotal_);
    cells["near_misses"] = runner::Json(cellNearMissesTotal_);
    doc["cells"] = runner::Json(std::move(cells));
    doc["last_error"] = runner::Json(lastError_);
    return runner::Json(std::move(doc));
}

std::uint64_t
SweepService::addListener(EventListener listener)
{
    std::lock_guard<std::mutex> lock(listenersMutex_);
    const std::uint64_t token = nextListener_++;
    listeners_.emplace(token, std::move(listener));
    return token;
}

void
SweepService::removeListener(std::uint64_t token)
{
    std::lock_guard<std::mutex> lock(listenersMutex_);
    listeners_.erase(token);
}

void
SweepService::emitEvent(runner::Json event)
{
    runner::Json::Object object = event.asObject();
    object["type"] = runner::Json("event");
    const runner::Json wrapped(std::move(object));

    // Copy listeners out so a slow/sending listener never blocks
    // submit/cancel paths holding service locks.
    std::vector<EventListener> snapshot;
    {
        std::lock_guard<std::mutex> lock(listenersMutex_);
        snapshot.reserve(listeners_.size());
        for (const auto &[token, listener] : listeners_)
            snapshot.push_back(listener);
    }
    for (const EventListener &listener : snapshot)
        listener(wrapped);
}

std::uint64_t
SweepService::pickNext() const
{
    std::uint64_t best = 0;
    std::int64_t best_priority = 0;
    for (const auto &[id, job] : jobs_) {
        if (job.info.state != JobState::Queued)
            continue;
        // Higher priority wins; the map's id order makes equal
        // priorities FIFO.
        if (best == 0 || job.info.priority > best_priority) {
            best = id;
            best_priority = job.info.priority;
        }
    }
    return best;
}

void
SweepService::schedulerLoop()
{
    setLogThreadName("sched");
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake_.wait(lock, [&] {
            return stop_ || (!paused_ && pickNext() != 0);
        });
        if (stop_)
            return;

        const std::uint64_t id = pickNext();
        Job &job = jobs_.at(id);
        job.info.state = JobState::Running;
        runningJob_ = id;
        queueWaitMs_.record(millisSince(job.enqueuedAt));

        lock.unlock();
        {
            runner::Json::Object event;
            event["event"] = runner::Json("job_started");
            event["job"] = runner::Json(id);
            emitEvent(runner::Json(std::move(event)));
        }
        const auto started = std::chrono::steady_clock::now();
        execute(job);
        lock.lock();

        runDurationMs_.record(millisSince(started));
        runningJob_ = 0;
        changed_.notify_all();
    }
}

void
SweepService::execute(Job &job)
{
    const std::uint64_t id = job.info.id;
    const runner::SweepSpec &spec = job.info.spec;

    // Correlate every log line of this job — the scheduler thread's
    // own lines here, and each worker's per-cell lines through
    // RunnerOptions::logContext — under one greppable "job-<id>/" id.
    const std::string correlation = strfmt("job-{}/", id);
    LogScope job_ctx(correlation);
    setCompressorBackend(startupBackend_);

    std::vector<RunRequest> cells;
    std::string error;
    if (!spec.expand(cells, &error)) {
        finishJob(job, JobState::Failed, std::move(error));
        return;
    }
    latte_inform("job {} started: {} cell(s), client '{}'", id,
                 cells.size(), job.info.client);

    runner::RunnerOptions runner_options;
    runner_options.threads = options_.threads;
    runner_options.cacheDir = options_.cacheDir;
    runner_options.progress = options_.progress;
    runner_options.logContext = correlation;
    runner_options.journalPath = cellJournalPathFor(id);
    runner_options.cellTimeoutMs = spec.cellTimeoutMs;
    runner_options.cellCycleBudget = spec.cellCycleBudget;
    runner_options.maxRetries = spec.retries;
    runner_options.retryBackoffMs = spec.retryBackoffMs;
    runner_options.cancel = &job.cancelToken;
    runner_options.onCellDone = [&](std::size_t index,
                                    const RunOutcome &outcome,
                                    bool shortcut) {
        {
            // mutex_ also guards these against concurrent job()/jobs()
            // snapshots; the scheduler thread does not hold it while a
            // job executes, so this cannot deadlock.
            std::lock_guard<std::mutex> lock(mutex_);
            ++job.info.cellsDone;
            ++cellsDoneTotal_;
            if (!outcome.ok()) {
                ++job.info.cellsFailed;
                ++cellsFailedTotal_;
            }
            if (shortcut) {
                ++job.info.cellsCached;
                ++cellsCachedTotal_;
            }
        }
        runner::Json::Object event;
        event["event"] = runner::Json("cell_done");
        event["job"] = runner::Json(id);
        event["cell"] = runner::Json(static_cast<std::uint64_t>(index));
        event["of"] =
            runner::Json(static_cast<std::uint64_t>(cells.size()));
        event["status"] = runner::Json(runStatusName(outcome.status));
        event["cached"] = runner::Json(shortcut);
        emitEvent(runner::Json(std::move(event)));
    };

    runner::ExperimentRunner runner(std::move(runner_options));
    const std::vector<RunOutcome> outcomes = runner.runAll(cells);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job.info.cellsExecuted = runner.stats().executed;
        cellsExecutedTotal_ += runner.stats().executed;
        cellNearMissesTotal_ += runner.stats().nearMisses;
        cellWallMs_.merge(runner.cellWallMs());
        if (stop_ && job.cancelToken.cancelled()) {
            // Shutdown, not a user cancel: journal nothing, so the
            // next start replays the submit record and requeues the
            // job — its finished cells resume from the cell journal.
            job.info.state = JobState::Queued;
            return;
        }
    }

    if (job.cancelToken.cancelled()) {
        finishJob(job, JobState::Cancelled, "cancelled while running");
        return;
    }

    // Publish the canonical export atomically BEFORE journaling "done":
    // a kill between the two requeues the job, which then rewrites the
    // identical bytes (every cell is now in cache/journal).
    const std::string result_path = resultPathFor(id);
    const std::string tmp_path =
        strfmt("{}.tmp{}", result_path,
               static_cast<std::uint64_t>(::getpid()));
    {
        std::ofstream out(tmp_path);
        if (!out) {
            finishJob(job, JobState::Failed,
                      "cannot write " + tmp_path);
            return;
        }
        out << runner::outcomesToJson(outcomes).dump(2) << "\n";
    }
    std::error_code ec;
    std::filesystem::rename(tmp_path, result_path, ec);
    if (ec) {
        finishJob(job, JobState::Failed,
                  "cannot publish " + result_path + " (" +
                      ec.message() + ")");
        return;
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        job.info.resultPath = result_path;
    }
    finishJob(job, JobState::Done, "");
}

void
SweepService::finishJob(Job &job, JobState state, std::string error)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job.info.state = state;
        job.info.error = std::move(error);
        job.info.servedFromCache =
            state == JobState::Done && job.info.cellsExecuted == 0 &&
            job.info.cellsTotal > 0;
        switch (state) {
          case JobState::Done:
            ++counters_.completed;
            if (job.info.servedFromCache)
                ++counters_.jobsServedFromCache;
            break;
          case JobState::Failed: ++counters_.failed; break;
          case JobState::Cancelled: ++counters_.cancelled; break;
          default: latte_panic("finishJob with live state");
        }
        if (state != JobState::Done && !job.info.error.empty())
            lastError_ = strfmt("job {}: {}", job.info.id,
                                job.info.error);
    }
    latte_inform("job {} {}: {}/{} cell(s) done, {} failed, {} cached, "
                 "{} executed{}",
                 job.info.id, jobStateName(state), job.info.cellsDone,
                 job.info.cellsTotal, job.info.cellsFailed,
                 job.info.cellsCached, job.info.cellsExecuted,
                 job.info.error.empty() ? std::string()
                                        : " — " + job.info.error);

    runner::FieldWriter record;
    record.field("type", std::string("done"));
    record.field("job", job.info.id);
    describeProgress(record, job.info);
    journal(record.take());

    runner::Json::Object event;
    event["event"] = runner::Json("job_done");
    event["job"] = runner::Json(job.info.id);
    event["state"] = runner::Json(jobStateName(state));
    event["served_from_cache"] =
        runner::Json(job.info.servedFromCache);
    emitEvent(runner::Json(std::move(event)));
    changed_.notify_all();
}

} // namespace latte::service
