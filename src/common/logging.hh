/**
 * @file
 * Error and status reporting in the style of gem5's logging.hh, backed
 * by a leveled, serialized, structured logger.
 *
 * panic() is for internal invariant violations (simulator bugs); it aborts.
 * fatal() is for user/configuration errors; it exits cleanly with an error
 * code. warn()/inform() report conditions without stopping the simulation;
 * latte_debug()/latte_tracelog() add verbose tiers that compile to a
 * level check when disabled.
 *
 * Every line goes through one process-wide writer under a mutex, so
 * output from runner threads and service threads never tears. Each
 * record carries a monotonic timestamp, the emitting thread's name and
 * the thread's correlation context (see LogScope) — in `--log-json`
 * mode as one JSON object per line, otherwise as
 *
 *   [     1.234567] warn  run-w2 job-4/cell-9: message
 *
 * The minimum level defaults to info and is controlled by --log-level /
 * LATTE_LOG_LEVEL (error|warn|info|debug|trace).
 */

#ifndef LATTE_COMMON_LOGGING_HH
#define LATTE_COMMON_LOGGING_HH

#include <sstream>
#include <string>
#include <string_view>

namespace latte
{

namespace detail
{

inline void
strfmtAppend(std::ostringstream &os, const char *fmt)
{
    os << fmt;
}

template <typename T, typename... Rest>
void
strfmtAppend(std::ostringstream &os, const char *fmt, T &&value,
             Rest &&...rest)
{
    for (; *fmt; ++fmt) {
        if (fmt[0] == '{' && fmt[1] == '}') {
            os << value;
            strfmtAppend(os, fmt + 2, std::forward<Rest>(rest)...);
            return;
        }
        os << *fmt;
    }
}

} // namespace detail

/**
 * Minimal type-safe "{}" string formatter (std::format is unavailable on
 * the host toolchain). Extra arguments beyond the placeholders are ignored;
 * extra placeholders are emitted verbatim.
 */
template <typename... Args>
std::string
strfmt(const char *fmt, Args &&...args)
{
    std::ostringstream os;
    detail::strfmtAppend(os, fmt, std::forward<Args>(args)...);
    return os.str();
}

/**
 * Append @p text to @p out as a quoted JSON string literal. The one
 * escaper behind Json::dump, --log-json, Chrome traces and JSONL metrics.
 */
void appendJsonString(std::string &out, std::string_view text);

/** appendJsonString() into a fresh string. */
inline std::string
jsonString(std::string_view text)
{
    std::string out;
    appendJsonString(out, text);
    return out;
}

// --- Leveled structured logger ------------------------------------------

/** Severity tiers, most severe first. */
enum class LogLevel
{
    Error = 0,
    Warn,
    Info,
    Debug,
    Trace,
};

/** Stable lower-case name ("error", "warn", ...). */
const char *logLevelName(LogLevel level);

/** Parse a level name; false (and @p out untouched) if unknown. */
bool logLevelFromName(const std::string &name, LogLevel &out);

/**
 * The process-wide minimum level. Initialized lazily from
 * LATTE_LOG_LEVEL (default info); setLogLevel() overrides either way.
 */
LogLevel logLevel();
void setLogLevel(LogLevel level);

/** Whether a record at @p level would be emitted. */
bool logEnabled(LogLevel level);

/** Emit records as JSON-lines instead of aligned text. */
void setLogJson(bool json);
bool logJson();

/**
 * Name the calling thread for every record it emits ("main", "run-w1",
 * "sched"...). Unnamed threads log as "t<n>" in spawn-ish order.
 */
void setLogThreadName(std::string name);

/** The calling thread's name (assigning a default if unnamed). */
const std::string &logThreadName();

/**
 * The calling thread's correlation context ("job-4/cell-9"), empty when
 * none is in scope. Every record carries it, so one grep over the
 * daemon's log reconstructs a job's whole lifetime.
 */
const std::string &logContext();

/**
 * RAII correlation scope: pushes @p context for the calling thread and
 * restores the previous context on destruction, so scopes nest.
 */
class LogScope
{
  public:
    explicit LogScope(std::string context);
    ~LogScope();

    LogScope(const LogScope &) = delete;
    LogScope &operator=(const LogScope &) = delete;

  private:
    std::string saved_;
};

/**
 * Serialized structured write at @p level. Callers normally use the
 * latte_warn/latte_inform/latte_debug macros, which gate on
 * logEnabled() before formatting.
 */
void logWrite(LogLevel level, const std::string &msg);

/**
 * Serialized verbatim line (no level gate, no timestamp/thread fields in
 * text mode): the progress/ETA printer uses this so its aligned columns
 * survive but can no longer tear against structured records. In JSON
 * mode the line is wrapped as an info record to keep the stream parseable.
 */
void logRawLine(const std::string &line);

/**
 * Test hook: divert every emitted line (without the trailing newline)
 * to @p sink instead of stderr. nullptr restores stderr.
 */
void setLogSink(void (*sink)(const std::string &));

/** Seconds since the process-wide monotonic log epoch. */
double logNowSeconds();

/** Abort with a message: an internal simulator invariant was violated. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Exit with a message: the user supplied an impossible configuration. */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Log a warning (level warn). */
void warnImpl(const std::string &msg);

/** Log a status message (level info). */
void informImpl(const std::string &msg);

} // namespace latte

#define latte_panic(...) \
    ::latte::panicImpl(__FILE__, __LINE__, ::latte::strfmt(__VA_ARGS__))

#define latte_fatal(...) \
    ::latte::fatalImpl(__FILE__, __LINE__, ::latte::strfmt(__VA_ARGS__))

#define latte_log(level, ...)                                            \
    do {                                                                 \
        if (::latte::logEnabled(level))                                  \
            ::latte::logWrite(level, ::latte::strfmt(__VA_ARGS__));      \
    } while (0)

#define latte_warn(...) latte_log(::latte::LogLevel::Warn, __VA_ARGS__)

#define latte_inform(...) latte_log(::latte::LogLevel::Info, __VA_ARGS__)

#define latte_debug(...) latte_log(::latte::LogLevel::Debug, __VA_ARGS__)

#define latte_tracelog(...) \
    latte_log(::latte::LogLevel::Trace, __VA_ARGS__)

/** Assertion that survives NDEBUG builds and reports through panic(). */
#define latte_assert(cond, ...)                                          \
    do {                                                                 \
        if (!(cond)) {                                                   \
            ::latte::panicImpl(__FILE__, __LINE__,                       \
                "assertion failed: " #cond " " +                         \
                ::latte::strfmt("" __VA_ARGS__));                        \
        }                                                                \
    } while (0)

#endif // LATTE_COMMON_LOGGING_HH
