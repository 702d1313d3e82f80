/**
 * @file
 * The shared command-line surface every bench binary and example gets
 * through Sweep: one declarative ArgSpec table defines each flag's
 * names, value placeholder, help line and parse action, and both the
 * parser and the generated --help output are derived from it — so a
 * new flag (as --resume and the timeout knobs were) lands once and
 * appears in every sweep binary.
 *
 *   -j N, --jobs N        worker threads (0 = hardware concurrency)
 *   --cache-dir DIR       on-disk result cache directory
 *   --resume PATH         sweep journal: record finished cells, skip
 *                         them when re-invoked after a crash/kill
 *   --cell-timeout SECS   wall-clock budget per cell attempt
 *   --cell-cycle-budget N per-cell simulated-cycle budget
 *   --retries N           extra attempts for failed/timed-out cells
 *   --retry-backoff-ms N  base backoff between attempts
 *   --json PATH           write all sweep outcomes as a JSON array
 *   --trace-out PATH      write a Chrome trace-event JSON of all runs
 *   --timeline-out PATH   write the per-EP time series of all runs
 *   --metrics-out PATH    write sampled time-series metrics (format by
 *                         extension: .prom/.txt Prometheus, .csv CSV,
 *                         anything else JSONL)
 *   --metrics-interval N  cycles between metric samples (default 100k)
 *   --profile             enable the wall-clock zone self-profiler
 *   --bench-out PATH      write an end-to-end throughput report JSON
 *   --no-progress         suppress the stderr progress/ETA lines
 *   --compress-backend B  compression kernel backend
 *                         (auto|scalar|avx2; speed only)
 *   --sim-threads N       accepted for compatibility; ignored
 *                         (count or "auto")
 *   --log-level L         stderr log threshold
 *                         (error|warn|info|debug|trace)
 *   --log-json            JSON-lines log records
 *   -q, --quiet           no progress lines, threshold raised to warn
 *   --help                print the generated flag table and exit
 *
 * Recognised flags are consumed (argc/argv are compacted in place);
 * everything else — positional workload names, google-benchmark flags —
 * is left for the caller.
 */

#ifndef LATTE_RUNNER_ARG_PARSE_HH
#define LATTE_RUNNER_ARG_PARSE_HH

#include <charconv>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace latte::runner
{

/**
 * All of @p text as a base-10 T, or nullopt when it is empty, has
 * trailing text, carries a sign T cannot hold or lies outside T's
 * range: unlike stoul/strtoull, "-1" never wraps into a huge unsigned
 * value and a wide value is never truncated into a narrow one.
 */
template <typename T>
std::optional<T>
parseNumber(std::string_view text)
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end)
        return std::nullopt;
    return value;
}

/** Exit with the usage-error status 1, naming @p flag and its value. */
[[noreturn]] void badFlagValue(std::string_view flag,
                               std::string_view text);

/** The value of @p flag as a T in [@p min, @p max], or badFlagValue(). */
template <typename T>
T
parseFlag(std::string_view flag, std::string_view text,
          T min = std::numeric_limits<T>::lowest(),
          T max = std::numeric_limits<T>::max())
{
    const std::optional<T> value = parseNumber<T>(text);
    // Written so that a NaN fails too.
    if (!value || !(*value >= min && *value <= max))
        badFlagValue(flag, text);
    return *value;
}

struct SweepCliOptions
{
    unsigned jobs = 0;       //!< 0 = hardware concurrency
    std::string cacheDir;    //!< empty = no persistent cache
    std::string jsonPath;    //!< empty = no JSON export
    std::string traceOut;    //!< empty = no Chrome trace export
    std::string timelineOut; //!< empty = no per-EP time-series export
    std::string metricsOut;  //!< empty = no metrics export
    /** Cycles between metric samples (0 = registry default). */
    std::uint64_t metricsInterval = 0;
    bool profile = false;    //!< enable the zone self-profiler
    std::string benchOut;    //!< empty = no throughput report
    bool progress = true;
    /**
     * Compression kernel backend (auto|scalar|avx2). Applied
     * process-wide at parse time and recorded in DriverOptions for the
     * result envelopes; bit-identical results either way, so it is not
     * part of the result-cache key. Empty = auto.
     */
    std::string compressBackend;
    /**
     * The --sim-threads value ("auto", a positive count, or empty =
     * LATTE_SIM_THREADS / default 1): accepted for compatibility;
     * ignored. Validated at parse time; not part of the result-cache
     * key.
     */
    std::string simThreads;
    /**
     * Compressed-L2 spec ("off", "static:<algo>", "latte"). Unlike the
     * two knobs above this one changes simulated behaviour: the Sweep
     * ctor applies it to the default DriverOptions, and it reaches the
     * RunKey fingerprint through the config JSON (emitted only when
     * not "off", so existing fingerprints are untouched). Empty =
     * leave the defaults alone.
     */
    std::string l2Compress;
    /** Link-compression spec ("off" or an algorithm); empty = keep. */
    std::string linkCompress;

    // --- Resilience ----------------------------------------------------
    std::string resumePath;  //!< sweep journal; empty = no resume
    /** Wall-clock budget per cell attempt in ms (0 = unlimited). */
    std::uint64_t cellTimeoutMs = 0;
    /** Per-cell simulated-cycle budget (0 = unlimited). */
    std::uint64_t cellCycleBudget = 0;
    /** Extra attempts for Failed/TimedOut cells. */
    std::uint32_t retries = 0;
    /** Base backoff before a retry, doubled per attempt. */
    std::uint64_t retryBackoffMs = 100;
};

/**
 * A grouped declarative command-line parser. Binaries that need flags
 * beyond the shared sweep set build one of these instead of hand-rolled
 * argv loops: registerCommonFlags() pulls in the whole sweep table
 * once, add() declares the binary-specific flags, and the generated
 * --help output keeps the two groups visually separate.
 *
 *   ArgParser parser("lattesim");
 *   parser.registerCommonFlags(cli);            // --json, --cache-dir, ...
 *   parser.beginGroup("lattesim options");
 *   parser.add("--workload", nullptr, "<abbr>", "workload to run",
 *              [&](const std::string &v) { abbr = v; });
 *   parser.parse(argc, argv);                   // strips known flags
 */
class ArgParser
{
  public:
    /** One registered flag; a null/empty `value` marks a boolean. */
    struct Flag
    {
        std::string name;  //!< long form, e.g. "--workload"
        std::string alias; //!< short form ("-w") or empty
        std::string value; //!< value placeholder ("<abbr>") or empty
        std::string help;  //!< one-line description
        std::function<void(const std::string &)> apply;
    };

    explicit ArgParser(std::string program);

    /**
     * Register the shared sweep flag table (--jobs/--cache-dir/--json/
     * --metrics-out/--retries/...) once, parsing into @p options, under
     * a "sweep options" help group. @p options must outlive parse().
     */
    void registerCommonFlags(SweepCliOptions &options);

    /** Start a titled help group; subsequent add()s land in it. */
    void beginGroup(std::string title);

    /** Declare one binary-specific flag in the current group. */
    void add(Flag flag);
    void add(const char *name, const char *alias, const char *value,
             const char *help,
             std::function<void(const std::string &)> apply);

    /**
     * Strip every registered flag out of @p argv (compacted in place;
     * unknown arguments are left for the caller). Malformed values
     * latte_fatal() with the usage text; `--help` prints the grouped
     * flag table and exits 0. `-jN` joined form is accepted when the
     * common flags are registered.
     */
    void parse(int &argc, char **argv);

    /** The grouped usage text --help prints. */
    std::string usage() const;

  private:
    struct Group
    {
        std::string title;
        std::vector<Flag> flags;
    };

    const Flag *find(const std::string &arg) const;

    std::string program_;
    std::vector<Group> groups_;
    bool hasCommon_ = false;
};

/**
 * Strip the sweep flags out of @p argv, returning the parsed options.
 * Equivalent to an ArgParser with only registerCommonFlags(). Malformed
 * values (e.g. a missing argument) latte_fatal() with usage; `--help`
 * prints the generated flag table and exits 0.
 */
SweepCliOptions parseSweepArgs(int &argc, char **argv);

} // namespace latte::runner

#endif // LATTE_RUNNER_ARG_PARSE_HH
