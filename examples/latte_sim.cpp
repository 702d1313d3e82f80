/**
 * @file
 * latte_sim — the command-line front end a downstream user would drive:
 * pick a workload and policy, override machine parameters, and get the
 * run metrics (optionally with the per-EP trace).
 *
 *   latte_sim --workload KM --policy latte
 *   latte_sim --workload SS --policy static-sc --l1-kb 48 --trace
 *   latte_sim --list
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "common/logging.hh"
#include "compress/backend.hh"
#include "core/driver.hh"
#include "metrics/profiler.hh"
#include "metrics/registry.hh"
#include "runner/arg_parse.hh"
#include "runner/json.hh"
#include "sim/thread_pool.hh"
#include "trace/sink.hh"
#include "workloads/zoo.hh"

using namespace latte;

namespace
{

bool
parsePolicy(const std::string &name, PolicyKind &kind)
{
    const struct { const char *name; PolicyKind kind; } table[] = {
        {"baseline", PolicyKind::Baseline},
        {"static-bdi", PolicyKind::StaticBdi},
        {"static-sc", PolicyKind::StaticSc},
        {"static-bpc", PolicyKind::StaticBpc},
        {"adaptive-hit", PolicyKind::AdaptiveHitCount},
        {"adaptive-cmp", PolicyKind::AdaptiveCmp},
        {"latte", PolicyKind::LatteCc},
        {"latte-bdi-bpc", PolicyKind::LatteCcBdiBpc},
        {"kernel-opt", PolicyKind::KernelOpt},
        {"l2-static-bdi", PolicyKind::L2StaticBdi},
        {"l2-latte", PolicyKind::L2Latte},
        {"latte-l1l2", PolicyKind::LatteCcL1L2},
    };
    for (const auto &entry : table) {
        if (name == entry.name) {
            kind = entry.kind;
            return true;
        }
    }
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_abbr = "KM";
    PolicyKind kind = PolicyKind::LatteCc;
    DriverOptions options;
    bool trace = false;
    std::string json_path;
    std::string trace_out;
    std::string timeline_out;
    std::string metrics_out;
    std::uint64_t metrics_interval = 0;
    bool profile = false;

    // Declarative flag table: lattesim runs ONE cell, so it keeps its
    // own export flags (--json here is the single cell document, not a
    // sweep array) instead of registerCommonFlags().
    runner::ArgParser parser("lattesim");
    parser.beginGroup("lattesim options");
    parser.add("--list", "", "", "list workloads and exit",
               [&](const std::string &) {
                   for (const auto &workload : workloadZoo()) {
                       std::cout << workload.abbr << "\t"
                                 << (workload.cacheSensitive
                                         ? "C-Sens  "
                                         : "C-InSens")
                                 << "\t" << workload.fullName << " ("
                                 << workload.suite << ")\n";
                   }
                   std::exit(0);
               });
    parser.add("--workload", "", "ABBR", "workload to run (default KM)",
               [&](const std::string &v) { workload_abbr = v; });
    parser.add("--policy", "", "NAME",
               "baseline | static-bdi | static-sc | static-bpc | "
               "adaptive-hit | adaptive-cmp | latte | latte-bdi-bpc | "
               "kernel-opt | l2-static-bdi | l2-latte | latte-l1l2",
               [&](const std::string &v) {
                   if (!parsePolicy(v, kind)) {
                       std::cerr << "unknown policy '" << v << "'\n";
                       std::exit(1);
                   }
               });
    parser.add("--l1-kb", "", "N", "L1 data cache size in KiB (default 16)",
               [&](const std::string &v) {
                   options.cfg.l1.sizeBytes =
                       runner::parseFlag<std::uint32_t>(
                           "--l1-kb", v, 0, UINT32_MAX / 1024) *
                       1024;
               });
    parser.add("--sms", "", "N", "number of SMs (default 15)",
               [&](const std::string &v) {
                   options.cfg.numSms =
                       runner::parseFlag<std::uint32_t>("--sms", v);
               });
    parser.add("--hit-latency", "", "N", "base L1 hit latency in cycles",
               [&](const std::string &v) {
                   options.cfg.l1.hitLatency =
                       runner::parseFlag<Cycles>("--hit-latency", v);
               });
    parser.add("--ep", "", "N", "LATTE-CC EP length in L1 accesses",
               [&](const std::string &v) {
                   options.cfg.latte.epAccesses =
                       runner::parseFlag<std::uint32_t>("--ep", v);
               });
    parser.add("--scheduler", "", "gto|lrr", "warp scheduler",
               [&](const std::string &v) {
                   if (v != "gto" && v != "lrr")
                       runner::badFlagValue("--scheduler", v);
                   options.cfg.schedPolicy =
                       v == "lrr" ? GpuConfig::SchedPolicy::LRR
                                  : GpuConfig::SchedPolicy::GTO;
               });
    parser.add("--max-instr", "", "N", "per-kernel instruction budget",
               [&](const std::string &v) {
                   options.maxInstructionsPerKernel =
                       runner::parseFlag<std::uint64_t>("--max-instr", v);
               });
    parser.add("--compress-backend", "", "NAME",
               "compression kernel backend: auto|scalar|avx2 "
               "(speed only; results are bit-identical)",
               [&](const std::string &v) {
                   std::string error;
                   const CompressorBackend *backend =
                       resolveCompressorBackend(v, &error);
                   if (!backend) {
                       std::cerr << error << "\n";
                       std::exit(1);
                   }
                   setCompressorBackend(*backend);
                   options.compressBackend = v;
               });
    parser.add("--sim-threads", "", "N",
               "a count or 'auto' (accepted for compatibility; ignored)",
               [&](const std::string &v) {
                   std::string error;
                   if (resolveSimThreads(v, &error) == 0) {
                       std::cerr << error << "\n";
                       std::exit(1);
                   }
                   options.simThreads = v;
               });
    parser.add("--trace", "", "", "print the per-EP policy trace",
               [&](const std::string &) { trace = true; });
    parser.add("--json", "", "PATH",
               "write the full run result as JSON",
               [&](const std::string &v) { json_path = v; });
    parser.add("--trace-out", "", "PATH",
               "write a Chrome trace-event JSON (chrome://tracing, "
               "ui.perfetto.dev)",
               [&](const std::string &v) { trace_out = v; });
    parser.add("--timeline-out", "", "PATH",
               "write the per-EP time series as JSON",
               [&](const std::string &v) { timeline_out = v; });
    parser.add("--metrics-out", "", "PATH",
               "write sampled time-series metrics (.prom/.txt "
               "Prometheus, .csv CSV, else JSONL)",
               [&](const std::string &v) { metrics_out = v; });
    parser.add("--metrics-interval", "", "N",
               "cycles between metric samples (default 100000)",
               [&](const std::string &v) {
                   metrics_interval = runner::parseFlag<std::uint64_t>(
                       "--metrics-interval", v);
               });
    parser.add("--profile", "", "",
               "measure wall-clock time per simulator zone (reported "
               "with the metrics export)",
               [&](const std::string &) { profile = true; });
    parser.add("--log-level", "", "LEVEL",
               "stderr log threshold: error|warn|info|debug|trace "
               "(default info, or LATTE_LOG_LEVEL)",
               [&](const std::string &v) {
                   LogLevel level;
                   if (!logLevelFromName(v, level)) {
                       std::cerr << "unknown log level '" << v << "'\n";
                       std::exit(1);
                   }
                   setLogLevel(level);
               });
    parser.add("--log-json", "", "",
               "emit log lines as JSON records (one object per line)",
               [&](const std::string &) { setLogJson(true); });
    parser.add("--quiet", "-q", "",
               "raise the log threshold to warn",
               [&](const std::string &) { setLogLevel(LogLevel::Warn); });
    parser.parse(argc, argv);
    if (argc > 1) {
        std::cerr << "unknown option '" << argv[1] << "'\n"
                  << parser.usage();
        return 1;
    }

    const Workload *workload = findWorkload(workload_abbr);
    if (!workload) {
        std::cerr << "unknown workload '" << workload_abbr
                  << "' (try --list)\n";
        return 1;
    }

    RunRequest request;
    request.workload = workload;
    request.policy = kind;
    request.options = options;

    std::unique_ptr<Tracer> tracer;
    if (!trace_out.empty()) {
        tracer = std::make_unique<Tracer>(std::size_t{1} << 20);
        request.tracer = tracer.get();
    }

    std::unique_ptr<metrics::MetricRegistry> registry;
    if (!metrics_out.empty()) {
        registry =
            std::make_unique<metrics::MetricRegistry>(metrics_interval);
        request.metrics = registry.get();
    }
    if (profile)
        metrics::setProfilerEnabled(true);

    const RunOutcome outcome = run(request);

    // --json gets the full schema-3 cell document (outcome envelope
    // included) even on failure, so downstream tooling sees the cause.
    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::cerr << "cannot write '" << json_path << "'\n";
            return 1;
        }
        out << runner::toJson(outcome).dump(2) << "\n";
    }

    if (!outcome.ok()) {
        std::cerr << "run failed: " << to_string(outcome.error) << "\n";
        return 1;
    }
    const WorkloadRunResult &result = outcome.value();

    if (tracer) {
        std::ofstream out(trace_out);
        if (!out) {
            std::cerr << "cannot write '" << trace_out << "'\n";
            return 1;
        }
        ChromeTraceSink sink(out);
        sink.writeRun(result.workload + "/" + result.policyLabel,
                      *tracer);
        sink.finish();
    }

    if (!timeline_out.empty()) {
        std::ofstream out(timeline_out);
        if (!out) {
            std::cerr << "cannot write '" << timeline_out << "'\n";
            return 1;
        }
        out << runner::timelineToJson({result}).dump(2) << "\n";
    }

    if (registry &&
        !metrics::writeMetricsOut(
            metrics_out, {{registry.get(),
                           {{"workload", result.workload},
                            {"policy", result.policyLabel}}}})) {
        std::cerr << "cannot write '" << metrics_out << "'\n";
        return 1;
    }

    std::cout << "workload      : " << workload->fullName << " ("
              << workload->abbr << ")\n";
    std::cout << "policy        : " << policyName(kind) << "\n";
    std::cout << "cycles        : " << result.cycles << "\n";
    std::cout << "instructions  : " << result.instructions << "\n";
    std::cout << "IPC           : "
              << static_cast<double>(result.instructions) /
                     static_cast<double>(result.cycles)
              << "\n";
    std::cout << "L1 hits       : " << result.hits << "\n";
    std::cout << "L1 misses     : " << result.misses << "\n";
    std::cout << "L1 miss rate  : " << result.missRate() << "\n";
    std::cout << "energy (mJ)   : " << result.energy.totalMj() << "\n";
    std::cout << "  core        : " << result.energy.coreDynamicMj
              << "\n";
    std::cout << "  data move   : " << result.energy.dataMovementMj()
              << "\n";
    std::cout << "  compression : " << result.energy.compressionMj
              << "\n";
    std::cout << "  static      : " << result.energy.staticMj << "\n";
    std::cout << "avg tolerance : " << result.avgTolerance()
              << " cycles\n";

    for (std::size_t k = 0; k < result.kernels.size(); ++k) {
        std::cout << "kernel[" << k << "] " << result.kernels[k].name
                  << ": " << result.kernels[k].cycles << " cycles";
        if (k < result.kernelBestModes.size()) {
            std::cout << " (oracle mode "
                      << compressorName(result.kernelBestModes[k])
                      << ")";
        }
        std::cout << "\n";
    }

    if (trace) {
        std::cout << "# ep cycle tolerance mode capacityKB\n";
        std::size_t ep = 0;
        for (const auto &point : result.trace) {
            std::cout << ep++ << " " << point.cycle << " "
                      << point.latencyTolerance << " "
                      << compressorName(point.mode) << " "
                      << point.effectiveCapacityBytes / 1024.0 << "\n";
        }
    }
    return 0;
}
