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

} // namespace latte::runner
