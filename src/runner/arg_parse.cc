#include "arg_parse.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "common/config.hh"
#include "common/logging.hh"
#include "compress/backend.hh"
#include "sim/thread_pool.hh"

namespace latte::runner
{

namespace
{

/**
 * One entry of the declarative flag table: the parser loop and the
 * --help text are both generated from kSpecs.
 */
struct ArgSpec
{
    const char *name;  //!< long form, e.g. "--cache-dir"
    const char *alias; //!< short form ("-j") or nullptr
    const char *value; //!< value placeholder ("<dir>") or nullptr
    const char *help;  //!< one-line description
    /** Consume the (possibly empty) value into @p options. */
    void (*apply)(SweepCliOptions &options, const std::string &value);
};

const char *sweepArgsUsage();

// The single source of truth: parseSweepArgs() walks this table and
// sweepArgsUsage() renders it. A null `value` marks a boolean flag.
const ArgSpec kSpecs[] = {
    {"--jobs", "-j", "<n>", "worker threads (0 = all cores)",
     [](SweepCliOptions &o, const std::string &v) {
         o.jobs = parseFlag<unsigned>("--jobs", v);
     }},
    {"--cache-dir", nullptr, "<dir>", "reuse/persist results on disk",
     [](SweepCliOptions &o, const std::string &v) { o.cacheDir = v; }},
    {"--resume", nullptr, "<path>",
     "journal finished cells there; skip them when re-run",
     [](SweepCliOptions &o, const std::string &v) { o.resumePath = v; }},
    {"--cell-timeout", nullptr, "<seconds>",
     "wall-clock budget per cell attempt (0 = unlimited)",
     [](SweepCliOptions &o, const std::string &v) {
         // Capped so the millisecond count fits its uint64.
         o.cellTimeoutMs = static_cast<std::uint64_t>(
             parseFlag("--cell-timeout", v, 0.0, 1e15) * 1000.0);
     }},
    {"--cell-cycle-budget", nullptr, "<cycles>",
     "simulated-cycle budget per cell (0 = unlimited)",
     [](SweepCliOptions &o, const std::string &v) {
         o.cellCycleBudget =
             parseFlag<std::uint64_t>("--cell-cycle-budget", v);
     }},
    {"--retries", nullptr, "<n>",
     "extra attempts for failed/timed-out cells",
     [](SweepCliOptions &o, const std::string &v) {
         o.retries = parseFlag<std::uint32_t>("--retries", v);
     }},
    {"--retry-backoff-ms", nullptr, "<ms>",
     "base backoff between attempts (doubled each retry)",
     [](SweepCliOptions &o, const std::string &v) {
         o.retryBackoffMs =
             parseFlag<std::uint64_t>("--retry-backoff-ms", v);
     }},
    {"--json", nullptr, "<path>",
     "write sweep outcomes as a JSON array",
     [](SweepCliOptions &o, const std::string &v) { o.jsonPath = v; }},
    {"--trace-out", nullptr, "<path>",
     "write a Chrome trace-event JSON (chrome://tracing, Perfetto)",
     [](SweepCliOptions &o, const std::string &v) { o.traceOut = v; }},
    {"--timeline-out", nullptr, "<path>",
     "write the per-EP time series (tolerance, mode, capacity)",
     [](SweepCliOptions &o, const std::string &v) {
         o.timelineOut = v;
     }},
    {"--metrics-out", nullptr, "<path>",
     "write sampled time-series metrics (.prom/.txt Prometheus, "
     ".csv CSV, else JSONL)",
     [](SweepCliOptions &o, const std::string &v) { o.metricsOut = v; }},
    {"--metrics-interval", nullptr, "<cycles>",
     "metric sampling interval (default 100000)",
     [](SweepCliOptions &o, const std::string &v) {
         o.metricsInterval =
             parseFlag<std::uint64_t>("--metrics-interval", v, 1);
     }},
    {"--profile", nullptr, nullptr,
     "enable the wall-clock zone self-profiler (reported with the "
     "metrics export)",
     [](SweepCliOptions &o, const std::string &) { o.profile = true; }},
    {"--bench-out", nullptr, "<path>",
     "write an end-to-end throughput report JSON",
     [](SweepCliOptions &o, const std::string &v) { o.benchOut = v; }},
    {"--no-progress", nullptr, nullptr,
     "suppress stderr progress lines",
     [](SweepCliOptions &o, const std::string &) {
         o.progress = false;
     }},
    {"--compress-backend", nullptr, "<name>",
     "compression kernel backend: auto|scalar|avx2 (speed only; "
     "results are bit-identical)",
     [](SweepCliOptions &o, const std::string &v) {
         std::string error;
         const CompressorBackend *backend =
             resolveCompressorBackend(v, &error);
         if (!backend)
             latte_fatal("--compress-backend: {}\n{}", error,
                         sweepArgsUsage());
         setCompressorBackend(*backend);
         o.compressBackend = v;
     }},
    {"--l2-compress", nullptr, "<off|static:algo|latte>",
     "compressed L2: store lines compressed with a fixed algorithm "
     "(static:bdi etc.) or per-EP adaptive selection (latte)",
     [](SweepCliOptions &o, const std::string &v) {
         CacheLevelConfig probe = CacheLevelConfig::l2Defaults();
         if (!parseLevelCompressSpec(v, probe))
             latte_fatal("--l2-compress: bad spec '{}' "
                         "(off|static:<algo>|latte)\n{}",
                         v, sweepArgsUsage());
         o.l2Compress = v;
     }},
    {"--link-compress", nullptr, "<off|algo>",
     "compress L2<->DRAM transfers with the named algorithm "
     "(bdi|fpc|cpack|bpc)",
     [](SweepCliOptions &o, const std::string &v) {
         CompressorId probe = CompressorId::None;
         if (!parseLinkCompressSpec(v, probe))
             latte_fatal("--link-compress: bad spec '{}' "
                         "(off|<algo>)\n{}",
                         v, sweepArgsUsage());
         o.linkCompress = v;
     }},
    {"--sim-threads", nullptr, "<n|auto>",
     "a count or 'auto' (accepted for compatibility; ignored)",
     [](SweepCliOptions &o, const std::string &v) {
         std::string error;
         if (resolveSimThreads(v, &error) == 0)
             latte_fatal("--sim-threads: {}\n{}", error,
                         sweepArgsUsage());
         o.simThreads = v;
     }},
    {"--log-level", nullptr, "<level>",
     "stderr log threshold: error|warn|info|debug|trace "
     "(default info, or LATTE_LOG_LEVEL)",
     [](SweepCliOptions &, const std::string &v) {
         LogLevel level;
         if (!logLevelFromName(v, level))
             latte_fatal("--log-level: unknown level '{}' "
                         "(want error|warn|info|debug|trace)\n{}",
                         v, sweepArgsUsage());
         setLogLevel(level);
     }},
    {"--log-json", nullptr, nullptr,
     "emit log lines as JSON records (one object per line)",
     [](SweepCliOptions &, const std::string &) { setLogJson(true); }},
    {"--quiet", "-q", nullptr,
     "suppress progress lines and raise the log threshold to warn",
     [](SweepCliOptions &o, const std::string &) {
         o.progress = false;
         setLogLevel(LogLevel::Warn);
     }},
};

/** Usage text generated from the ArgSpec table (for --help output). */
const char *
sweepArgsUsage()
{
    static const std::string text = [] {
        ArgParser parser("");
        static SweepCliOptions sink;
        parser.registerCommonFlags(sink);
        return parser.usage();
    }();
    return text.c_str();
}

/** "  -j, --jobs <n>" column head of one flag line. */
std::string
flagHead(const ArgParser::Flag &flag)
{
    std::string head = "  ";
    if (!flag.alias.empty())
        head += flag.alias + ", ";
    head += flag.name;
    if (!flag.value.empty())
        head += " " + flag.value;
    return head;
}

} // namespace

void
badFlagValue(std::string_view flag, std::string_view text)
{
    latte_fatal("{}: bad value '{}' (try --help)", flag, text);
}

ArgParser::ArgParser(std::string program) : program_(std::move(program))
{}

void
ArgParser::registerCommonFlags(SweepCliOptions &options)
{
    beginGroup("sweep options");
    for (const ArgSpec &spec : kSpecs) {
        const ArgSpec *entry = &spec;
        add(Flag{
            .name = spec.name,
            .alias = spec.alias ? spec.alias : "",
            .value = spec.value ? spec.value : "",
            .help = spec.help,
            .apply =
                [entry, &options](const std::string &value) {
                    entry->apply(options, value);
                },
        });
    }
    hasCommon_ = true;
}

void
ArgParser::beginGroup(std::string title)
{
    groups_.push_back(Group{std::move(title), {}});
}

void
ArgParser::add(Flag flag)
{
    if (groups_.empty())
        beginGroup("options");
    groups_.back().flags.push_back(std::move(flag));
}

void
ArgParser::add(const char *name, const char *alias, const char *value,
               const char *help,
               std::function<void(const std::string &)> apply)
{
    add(Flag{name, alias ? alias : "", value ? value : "", help,
             std::move(apply)});
}

const ArgParser::Flag *
ArgParser::find(const std::string &arg) const
{
    for (const Group &group : groups_) {
        for (const Flag &flag : group.flags) {
            if (arg == flag.name ||
                (!flag.alias.empty() && arg == flag.alias))
                return &flag;
        }
    }
    return nullptr;
}

std::string
ArgParser::usage() const
{
    // Render every "  -j, --jobs <n>" column head at one shared width
    // so the groups line up as one table.
    std::size_t width = 0;
    for (const Group &group : groups_) {
        for (const Flag &flag : group.flags)
            width = std::max(width, flagHead(flag).size());
    }
    width = std::max(width, std::string("  --help").size()) + 2;

    std::string text;
    if (!program_.empty())
        text += "usage: " + program_ + " [options]\n";
    for (const Group &group : groups_) {
        if (!text.empty())
            text += "\n";
        text += group.title + ":\n";
        for (const Flag &flag : group.flags) {
            std::string line = flagHead(flag);
            line.resize(width, ' ');
            text += line + flag.help + "\n";
        }
    }
    std::string help_line = "  --help";
    help_line.resize(width, ' ');
    text += help_line + "print this flag table and exit\n";
    return text;
}

void
ArgParser::parse(int &argc, char **argv)
{
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];

        if (arg == "--help") {
            std::fputs(usage().c_str(), stdout);
            std::exit(0);
        }
        // Joined -jN form, kept for muscle memory with make(1).
        if (hasCommon_ && arg.rfind("-j", 0) == 0 && arg.size() > 2 &&
            std::isdigit(static_cast<unsigned char>(arg[2]))) {
            if (const Flag *jobs = find("--jobs")) {
                jobs->apply(arg.substr(2));
                continue;
            }
        }

        const Flag *match = find(arg);
        if (!match) {
            argv[out++] = argv[i];
            continue;
        }

        std::string value;
        if (!match->value.empty()) {
            if (i + 1 >= argc)
                latte_fatal("{} needs a value\n{}", match->name,
                            usage());
            value = argv[++i];
        }
        match->apply(value);
    }
    argc = out;
    argv[argc] = nullptr;
}

SweepCliOptions
parseSweepArgs(int &argc, char **argv)
{
    SweepCliOptions options;
    ArgParser parser("");
    parser.registerCommonFlags(options);
    parser.parse(argc, argv);
    return options;
}

} // namespace latte::runner
