/**
 * @file
 * Shared helpers for the per-figure benchmark harnesses: the parallel
 * sweep harness (latte::runner::Sweep), geometric means and table
 * formatting. A typical figure binary declares its whole
 * (workload x policy) grid with Sweep::add() and then reads cells with
 * Sweep::get(); the first get() executes everything pending across the
 * -j worker threads, consulting the --cache-dir result cache if given.
 */

#ifndef LATTE_BENCH_BENCH_UTIL_HH
#define LATTE_BENCH_BENCH_UTIL_HH

#include <iomanip>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/driver.hh"
#include "runner/sweep.hh"
#include "workloads/zoo.hh"

namespace latte::bench
{

using runner::Sweep;

/**
 * Geometric mean of a vector of ratios (latte::geomean: non-positive
 * entries are skipped with a warning instead of poisoning the mean).
 */
using latte::geomean;

/**
 * The canonical per-figure grid as a declarative SweepSpec: every
 * workload (the whole zoo, or C-Sens only) runs Baseline first and
 * then each of @p kinds. The expansion order matches the historical
 * hand-written add() loops, so RunKeys, cache entries and --json
 * exports are unchanged; the same spec can also be dumped with
 * toJson() and submitted to latted as-is.
 */
inline runner::SweepSpec
figureGridSpec(const std::vector<PolicyKind> &kinds,
               bool sensitive_only = false)
{
    runner::SweepSpec spec;
    if (sensitive_only)
        for (const auto *workload : workloadsByCategory(true))
            spec.workloads.push_back(workload->abbr);
    spec.policies.push_back(policyName(PolicyKind::Baseline));
    for (const PolicyKind kind : kinds)
        spec.policies.push_back(policyName(kind));
    return spec;
}

/** Declare the canonical figure grid (Baseline + @p kinds) on @p sweep. */
inline void
declareGrid(Sweep &sweep, const std::vector<PolicyKind> &kinds,
            bool sensitive_only = false)
{
    sweep.add(figureGridSpec(kinds, sensitive_only));
}

/** Print one row of right-aligned numeric cells. */
inline void
printRow(const std::string &label, const std::vector<double> &cells,
         int width = 10, int precision = 3)
{
    std::cout << std::left << std::setw(6) << label << std::right
              << std::fixed << std::setprecision(precision);
    for (const double cell : cells)
        std::cout << std::setw(width) << cell;
    std::cout << "\n" << std::flush;
}

/** Print a header row. */
inline void
printHeader(const std::vector<std::string> &columns, int width = 10)
{
    std::cout << std::left << std::setw(6) << "wl" << std::right;
    for (const auto &column : columns)
        std::cout << std::setw(width) << column;
    std::cout << "\n";
}

} // namespace latte::bench

#endif // LATTE_BENCH_BENCH_UTIL_HH
