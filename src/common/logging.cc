#include "logging.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace latte
{

namespace
{

struct LevelEntry
{
    LogLevel level;
    const char *name;
};

const LevelEntry kLevelTable[] = {
    {LogLevel::Error, "error"}, {LogLevel::Warn, "warn"},
    {LogLevel::Info, "info"},   {LogLevel::Debug, "debug"},
    {LogLevel::Trace, "trace"},
};

constexpr int kLevelUnset = -1;

/** Minimum emitted level; kLevelUnset until the env is consulted. */
std::atomic<int> g_level{kLevelUnset};
std::atomic<bool> g_json{false};

/** Serializes every emitted line; also guards the sink pointer. */
std::mutex g_writeMutex;
void (*g_sink)(const std::string &) = nullptr;

/** Monotonic epoch all record timestamps are relative to. */
const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();

std::atomic<unsigned> g_nextThreadSeq{0};

thread_local std::string t_threadName;
thread_local std::string t_context;

/** Emit one finished line (adds the newline). Caller holds no locks. */
void
emitLine(const std::string &line)
{
    std::lock_guard<std::mutex> lock(g_writeMutex);
    if (g_sink) {
        g_sink(line);
        return;
    }
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fputc('\n', stderr);
    std::fflush(stderr);
}

std::string
renderRecord(LogLevel level, const std::string &msg)
{
    const double ts = logNowSeconds();
    const std::string &thread = logThreadName();
    const std::string &context = t_context;

    std::string line;
    if (g_json.load(std::memory_order_relaxed)) {
        char ts_buf[32];
        std::snprintf(ts_buf, sizeof(ts_buf), "%.6f", ts);
        line += "{\"ts\":";
        line += ts_buf;
        line += ",\"level\":\"";
        line += logLevelName(level);
        line += "\",\"thread\":";
        appendJsonString(line, thread);
        if (!context.empty()) {
            line += ",\"ctx\":";
            appendJsonString(line, context);
        }
        line += ",\"msg\":";
        appendJsonString(line, msg);
        line += "}";
        return line;
    }

    char head[64];
    std::snprintf(head, sizeof(head), "[%13.6f] %-5s %s", ts,
                  logLevelName(level), thread.c_str());
    line += head;
    if (!context.empty()) {
        line += " ";
        line += context;
    }
    line += ": ";
    line += msg;
    return line;
}

} // namespace

void
appendJsonString(std::string &out, std::string_view text)
{
    out += '"';
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

const char *
logLevelName(LogLevel level)
{
    for (const LevelEntry &entry : kLevelTable) {
        if (entry.level == level)
            return entry.name;
    }
    return "?";
}

bool
logLevelFromName(const std::string &name, LogLevel &out)
{
    for (const LevelEntry &entry : kLevelTable) {
        if (name == entry.name) {
            out = entry.level;
            return true;
        }
    }
    return false;
}

LogLevel
logLevel()
{
    int level = g_level.load(std::memory_order_relaxed);
    if (level != kLevelUnset)
        return static_cast<LogLevel>(level);

    LogLevel resolved = LogLevel::Info;
    if (const char *env = std::getenv("LATTE_LOG_LEVEL");
        env && *env != '\0') {
        if (!logLevelFromName(env, resolved)) {
            resolved = LogLevel::Info;
            // Emit directly: logWrite would re-enter logLevel().
            emitLine(renderRecord(
                LogLevel::Warn,
                strfmt("ignoring invalid LATTE_LOG_LEVEL='{}' (want "
                       "error|warn|info|debug|trace)",
                       env)));
        }
    }
    // Another thread may have resolved (or set) a level concurrently;
    // first writer wins so a racing setLogLevel() is never clobbered.
    int expected = kLevelUnset;
    g_level.compare_exchange_strong(expected,
                                    static_cast<int>(resolved),
                                    std::memory_order_relaxed);
    return static_cast<LogLevel>(
        g_level.load(std::memory_order_relaxed));
}

void
setLogLevel(LogLevel level)
{
    g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

bool
logEnabled(LogLevel level)
{
    return static_cast<int>(level) <= static_cast<int>(logLevel());
}

void
setLogJson(bool json)
{
    g_json.store(json, std::memory_order_relaxed);
}

bool
logJson()
{
    return g_json.load(std::memory_order_relaxed);
}

void
setLogThreadName(std::string name)
{
    t_threadName = std::move(name);
}

const std::string &
logThreadName()
{
    if (t_threadName.empty()) {
        t_threadName = strfmt(
            "t{}",
            g_nextThreadSeq.fetch_add(1, std::memory_order_relaxed));
    }
    return t_threadName;
}

const std::string &
logContext()
{
    return t_context;
}

LogScope::LogScope(std::string context) : saved_(std::move(t_context))
{
    t_context = std::move(context);
}

LogScope::~LogScope()
{
    t_context = std::move(saved_);
}

void
logWrite(LogLevel level, const std::string &msg)
{
    emitLine(renderRecord(level, msg));
}

void
logRawLine(const std::string &line)
{
    if (g_json.load(std::memory_order_relaxed)) {
        emitLine(renderRecord(LogLevel::Info, line));
        return;
    }
    emitLine(line);
}

void
setLogSink(void (*sink)(const std::string &))
{
    std::lock_guard<std::mutex> lock(g_writeMutex);
    g_sink = sink;
}

double
logNowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - g_epoch)
        .count();
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    logWrite(LogLevel::Error,
             strfmt("panic: {}\n  at {}:{}", msg, file, line));
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    logWrite(LogLevel::Error,
             strfmt("fatal: {}\n  at {}:{}", msg, file, line));
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    logWrite(LogLevel::Warn, msg);
}

void
informImpl(const std::string &msg)
{
    logWrite(LogLevel::Info, msg);
}

} // namespace latte
