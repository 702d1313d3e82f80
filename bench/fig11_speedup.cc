/**
 * @file
 * Figure 11 — the headline result: speedup of Static-BDI, Static-SC,
 * LATTE-CC and the Kernel-OPT oracle over the uncompressed baseline,
 * for every workload, with per-category averages. Paper numbers for
 * C-Sens: LATTE-CC +19.2% (up to +48.4%), Static-BDI +13.7%,
 * Static-SC -8.2%, and LATTE-CC slightly above Kernel-OPT.
 */

#include "bench_util.hh"
#include "common/logging.hh"

using namespace latte;
using namespace latte::bench;

namespace
{

/**
 * Compression-down-the-hierarchy probe: the fig11 grid with the L2
 * also compressed. One BDI-friendly workload (NW) and one
 * BDI-resistant one (KM) across l2.compress in {off, static:bdi,
 * latte}, recorded in the --bench-out report so CI tracks that the
 * compressed-L2 rows keep running end-to-end and that the adaptive
 * row never loses to off by more than noise. The cells run through a
 * second Sweep on the main sweep's result cache and thread count,
 * with no exports of its own.
 */
void
runL2CompressGrid(Sweep &sweep)
{
    const struct { const char *spec; PolicyKind kind; } rows[] = {
        {"off", PolicyKind::Baseline},
        {"static:bdi", PolicyKind::L2StaticBdi},
        {"latte", PolicyKind::L2Latte},
    };

    const runner::RunnerOptions &main = sweep.runner().options();
    runner::SweepCliOptions cli;
    cli.jobs = main.threads;
    cli.cacheDir = main.cacheDir;
    cli.progress = main.progress;
    Sweep grid(cli, sweep.defaults());
    std::vector<const Workload *> workloads;
    for (const char *abbr : {"NW", "KM"}) {
        if (const Workload *workload = findWorkload(abbr)) {
            workloads.push_back(workload);
            for (const auto &row : rows)
                grid.add(*workload, row.kind);
        }
    }

    runner::Json::Array entries;
    for (const Workload *workload : workloads) {
        const std::string &abbr = workload->abbr;
        double off_cycles = 0;
        for (const auto &row : rows) {
            const RunOutcome &outcome = grid.outcome(*workload, row.kind);
            if (!outcome.ok())
                latte_fatal("l2-compress grid failed on {} at "
                            "l2.compress={}: {}",
                            abbr, row.spec, outcome.error.message);
            const WorkloadRunResult &result = outcome.value();
            if (off_cycles == 0)
                off_cycles = static_cast<double>(result.cycles);

            runner::Json::Object entry;
            entry["workload"] = abbr;
            entry["l2_compress"] = std::string(row.spec);
            entry["cycles"] = result.cycles;
            entry["speedup_vs_off"] =
                off_cycles > 0
                    ? off_cycles / static_cast<double>(result.cycles)
                    : 0.0;
            const auto compressed = result.stats.find(
                "gpu.l2.compress.compressed_insertions");
            entry["l2_compressed_insertions"] =
                compressed != result.stats.end() ? compressed->second
                                                 : 0.0;
            entry["energy_mj"] = result.energy.totalMj();
            entries.push_back(runner::Json(std::move(entry)));
            std::cout << "l2-compress grid: " << abbr
                      << " l2.compress=" << row.spec << " "
                      << result.cycles << " cycles\n";
        }
    }
    sweep.addBenchExtra("l2_compress_grid",
                        runner::Json(std::move(entries)));
}

} // namespace

int
main(int argc, char **argv)
{
    Sweep sweep(argc, argv);
    const std::vector<PolicyKind> kinds = {
        PolicyKind::StaticBdi, PolicyKind::StaticSc, PolicyKind::LatteCc,
        PolicyKind::KernelOpt};
    declareGrid(sweep, kinds);

    std::cout << "=== Figure 11: speedup over the uncompressed baseline "
                 "===\n";
    printHeader({"BDI", "SC", "LATTE", "K-OPT"});

    for (const bool sensitive : {false, true}) {
        std::map<PolicyKind, std::vector<double>> per_policy;
        for (const auto *workload : workloadsByCategory(sensitive)) {
            const auto &base =
                sweep.get(*workload, PolicyKind::Baseline);
            std::vector<double> row;
            for (const PolicyKind kind : kinds) {
                const double speedup =
                    speedupOver(base, sweep.get(*workload, kind));
                row.push_back(speedup);
                per_policy[kind].push_back(speedup);
            }
            printRow(workload->abbr, row);
        }
        std::vector<double> means;
        for (const PolicyKind kind : kinds)
            means.push_back(geomean(per_policy[kind]));
        printRow(sensitive ? "SENS" : "INSEN", means);
        std::cout << "\n";
    }

    std::cout << "Expected shape (paper, C-Sens averages): LATTE-CC > "
                 "Static-BDI > 1.0 > Static-SC; LATTE-CC >= Kernel-OPT. "
                 "C-InSens: LATTE/BDI ~1.0, SC < 1.0.\n";

    if (!sweep.benchPath().empty())
        runL2CompressGrid(sweep);
    return 0;
}
