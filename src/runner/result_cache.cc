#include "result_cache.hh"

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "common/logging.hh"
#include "json.hh"
#include "metrics/profiler.hh"

namespace latte::runner
{

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

RunKey
RunKey::of(const RunRequest &request)
{
    latte_assert(request.workload != nullptr);
    // A catalogue row that turns the adaptive L2 on (L2-LATTE,
    // LATTE-CC-L1L2) keys on the config it runs, so the L2 rule
    // revision reaches its fingerprint as it reaches an explicit
    // l2.compress=latte cell's. Every other row keys on its request's
    // own options.
    DriverOptions options = runOptions(request);
    if (options.cfg.l2.compress != LevelCompress::Latte)
        options = request.options;
    return RunKey{
        .workload = request.workload->abbr,
        .policyLabel = runRequestLabel(request),
        .seed = request.seed,
        .configHash = fnv1a(toJson(options).dump()),
    };
}

std::string
RunKey::fingerprint() const
{
    std::string safe_label;
    for (const char c : policyLabel) {
        safe_label += (std::isalnum(static_cast<unsigned char>(c)) ||
                       c == '-' || c == '_')
                          ? c
                          : '_';
    }
    return workload + "-" + safe_label + "-" + configHex() + "-" +
           std::to_string(seed);
}

std::string
RunKey::configHex() const
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(configHash));
    return hex;
}

ResultCache::ResultCache(std::string directory)
    : directory_(std::move(directory))
{
    latte_assert(!directory_.empty(),
                 "ResultCache needs a directory path");
}

std::string
ResultCache::path(const RunKey &key) const
{
    return directory_ + "/" + key.fingerprint() + ".json";
}

std::optional<RunOutcome>
ResultCache::lookup(const RunKey &key) const
{
    std::ifstream in(path(key));
    if (!in)
        return std::nullopt;
    std::ostringstream text;
    text << in.rdbuf();

    std::string error;
    const Json json = Json::parse(text.str(), &error);
    if (!error.empty()) {
        latte_warn("result cache: ignoring unparsable {} ({})",
                   path(key), error);
        return std::nullopt;
    }
    RunOutcome outcome;
    if (!fromJson(json, outcome, &error) || !outcome.ok()) {
        latte_warn("result cache: ignoring stale-schema {} {}", path(key),
                   error);
        return std::nullopt;
    }
    return outcome;
}

void
ResultCache::store(const RunKey &key, const RunOutcome &outcome) const
{
    latte_assert(outcome.ok(),
                 "only Ok outcomes belong in the result cache");
    metrics::ProfileScope profile(metrics::ProfileZone::RunnerSerialize);
    std::error_code ec;
    std::filesystem::create_directories(directory_, ec);
    if (ec) {
        latte_warn("result cache: cannot create {} ({})", directory_,
                   ec.message());
        return;
    }

    const std::string final_path = path(key);
    // Unique temp name per writer; rename makes the publish atomic, so
    // concurrent writers of the same cell cannot interleave bytes. The
    // pid is part of the name because a cache directory may be shared
    // by several processes (two sweeps, or the latted daemon next to a
    // direct run) whose thread-id hashes can collide.
    const std::string tmp_path = strfmt(
        "{}.tmp{}-{}", final_path,
        static_cast<std::uint64_t>(::getpid()),
        std::hash<std::thread::id>{}(std::this_thread::get_id()));

    {
        std::ofstream out(tmp_path);
        if (!out) {
            latte_warn("result cache: cannot write {}", tmp_path);
            return;
        }
        out << toJson(outcome).dump(2) << "\n";
    }
    std::filesystem::rename(tmp_path, final_path, ec);
    if (ec) {
        latte_warn("result cache: cannot publish {} ({})", final_path,
                   ec.message());
        std::filesystem::remove(tmp_path, ec);
    }
}

} // namespace latte::runner
