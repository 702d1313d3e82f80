#include "resilience.hh"

#include <filesystem>
#include <sstream>

#include "common/logging.hh"
#include "json.hh"
#include "json_fields.hh"

namespace latte::runner
{

SweepJournal::SweepJournal(std::string path) : path_(std::move(path))
{
    latte_assert(!path_.empty(), "SweepJournal needs a file path");
    std::error_code ec;
    const auto parent = std::filesystem::path(path_).parent_path();
    if (!parent.empty())
        std::filesystem::create_directories(parent, ec);

    std::ifstream in(path_);
    if (in) {
        std::string line;
        std::size_t bad = 0;
        while (std::getline(in, line)) {
            if (line.empty())
                continue;
            std::string error;
            const Json json = Json::parse(line, &error);
            std::string fingerprint;
            Json body;
            const auto line_fields = [&](FieldReader &io) {
                io.field("fingerprint", fingerprint);
                io.field("outcome", body);
            };
            RunOutcome outcome;
            if (!error.empty() || !decodeJson(json, line_fields) ||
                !fromJson(body, outcome)) {
                // A truncated tail line is the expected SIGKILL scar;
                // the cell simply counts as unfinished.
                ++bad;
                continue;
            }
            // Ok entries are completion markers only — the result body
            // journaled alongside is a stub; the real bytes live in the
            // result cache.
            if (outcome.ok())
                outcome.result.reset();
            entries_.insert_or_assign(std::move(fingerprint),
                                      std::move(outcome));
        }
        if (bad > 0)
            latte_warn("sweep journal {}: skipped {} unreadable line(s)",
                       path_, bad);
    }

    out_.open(path_, std::ios::app);
    if (!out_)
        latte_warn("sweep journal: cannot append to {}", path_);
}

std::optional<RunOutcome>
SweepJournal::find(const std::string &fingerprint) const
{
    std::lock_guard lock(mutex_);
    const auto it = entries_.find(fingerprint);
    if (it == entries_.end())
        return std::nullopt;
    return it->second;
}

void
SweepJournal::record(const std::string &fingerprint,
                     const RunOutcome &outcome)
{
    // Journal the envelope only: the result body of an ok cell is
    // cache-sized, and the cache already owns those bytes.
    RunOutcome entry = outcome;
    entry.result.reset();

    Json::Object line;
    line.emplace("fingerprint", fingerprint);
    line.emplace("outcome", toJson(entry));

    std::lock_guard lock(mutex_);
    if (out_) {
        out_ << Json(std::move(line)).dump() << "\n";
        out_.flush();  // one durable line per finished cell
    }
    entries_.insert_or_assign(fingerprint, std::move(entry));
}

std::size_t
SweepJournal::size() const
{
    std::lock_guard lock(mutex_);
    return entries_.size();
}

Watchdog::Watchdog(std::uint64_t pollMs)
    : poll_(std::chrono::milliseconds(pollMs == 0 ? 1 : pollMs)),
      thread_([this] { loop(); })
{}

Watchdog::~Watchdog()
{
    {
        std::lock_guard lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    thread_.join();
}

std::uint64_t
Watchdog::arm(CancelToken *token, std::uint64_t timeoutMs,
              std::string label)
{
    latte_assert(token != nullptr, "Watchdog::arm needs a token");
    const auto now = Clock::now();
    const auto deadline = now + std::chrono::milliseconds(timeoutMs);
    std::uint64_t id;
    {
        std::lock_guard lock(mutex_);
        id = nextId_++;
        slots_.emplace(
            id, Slot{token, deadline, now, timeoutMs, std::move(label)});
    }
    wake_.notify_all();
    return id;
}

void
Watchdog::disarm(std::uint64_t id)
{
    if (id == 0)
        return;
    std::uint64_t elapsedMs = 0;
    std::uint64_t timeoutMs = 0;
    std::string label;
    bool nearMiss = false;
    {
        std::lock_guard lock(mutex_);
        const auto it = slots_.find(id);
        if (it == slots_.end())
            return;  // already expired; the cancel is the record
        const Slot &slot = it->second;
        elapsedMs = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                Clock::now() - slot.armedAt)
                .count());
        // Finished in budget but past half of it: the early warning
        // that this config's --cell-timeout is about to start biting.
        if (slot.timeoutMs > 0 && elapsedMs * 2 >= slot.timeoutMs) {
            nearMiss = true;
            ++nearMisses_;
            timeoutMs = slot.timeoutMs;
            label = slot.label;
        }
        slots_.erase(it);
    }
    if (nearMiss)
        latte_warn("watchdog near-miss: {} took {} ms of a {} ms budget",
                   label.empty() ? "cell" : label.c_str(), elapsedMs,
                   timeoutMs);
}

std::uint64_t
Watchdog::expiredCount() const
{
    std::lock_guard lock(mutex_);
    return expired_;
}

std::uint64_t
Watchdog::nearMissCount() const
{
    std::lock_guard lock(mutex_);
    return nearMisses_;
}

void
Watchdog::loop()
{
    setLogThreadName("watchdog");
    std::unique_lock lock(mutex_);
    while (!stop_) {
        wake_.wait_for(lock, poll_);
        if (stop_)
            break;
        const auto now = Clock::now();
        for (auto it = slots_.begin(); it != slots_.end();) {
            Slot &slot = it->second;
            if (now >= slot.deadline) {
                slot.token->cancel(RunErrorCode::WallClockTimeout);
                ++expired_;
                latte_warn("watchdog expired: {} exceeded its {} ms "
                           "wall-clock budget, cancelling",
                           slot.label.empty() ? "cell"
                                              : slot.label.c_str(),
                           slot.timeoutMs);
                it = slots_.erase(it);
            } else {
                ++it;
            }
        }
    }
}

} // namespace latte::runner
