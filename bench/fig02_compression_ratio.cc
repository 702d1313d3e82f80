/**
 * @file
 * Figure 2: compression ratio of all cache lines inserted into the L1
 * data caches, for the five algorithms, across the workload zoo. Lines
 * are collected by running each workload's first kernel under the
 * uncompressed baseline and compressing every inserted line offline.
 * Table I's qualitative ordering (SC/BPC/BDI > FPC/CPACK) should emerge.
 */

#include <cmath>
#include <iomanip>
#include <iostream>
#include <map>
#include <vector>

#include "compress/engines.hh"
#include "mem/memory_image.hh"
#include "workloads/zoo.hh"

using namespace latte;

namespace
{

/** Collect the distinct lines a workload's accesses touch. */
std::vector<std::array<std::uint8_t, 128>>
collectLines(const Workload &workload, unsigned max_lines)
{
    MemoryImage mem;
    workload.setup(mem);

    std::vector<std::array<std::uint8_t, 128>> lines;
    std::map<Addr, bool> seen;

    auto kernels = makeKernels(workload);
    auto &kernel = *kernels.front();
    const std::uint32_t warps =
        kernel.numCtas() * kernel.warpsPerCta();

    for (std::uint32_t w = 0; w < warps && lines.size() < max_lines;
         w += 7) {
        for (std::uint64_t pc = 0; pc < 400 && lines.size() < max_lines;
             ++pc) {
            const DecodedInstr instr = kernel.fetch(w, pc);
            if (instr.op == Op::Exit)
                break;
            if (instr.op != Op::Load)
                continue;
            for (const Addr addr : instr.laneAddrs) {
                const Addr line_addr = MemoryImage::lineAddr(addr);
                if (seen.emplace(line_addr, true).second) {
                    lines.push_back(mem.line(line_addr));
                    if (lines.size() >= max_lines)
                        break;
                }
            }
        }
    }
    return lines;
}

} // namespace

int
main()
{
    constexpr unsigned kMaxLines = 2000;

    std::cout << "=== Figure 2: L1-inserted line compression ratio by "
                 "algorithm ===\n";
    std::cout << std::left << std::setw(6) << "wl" << std::setw(9)
              << "cat";
    for (const CompressorId id : kAlgorithmIds)
        std::cout << std::right << std::setw(9) << compressorName(id);
    std::cout << "\n";

    std::map<CompressorId, double> geo_sum;
    unsigned n_workloads = 0;

    for (const auto &workload : workloadZoo()) {
        const auto lines = collectLines(workload, kMaxLines);
        if (lines.empty())
            continue;
        ++n_workloads;

        std::cout << std::left << std::setw(6) << workload.abbr
                  << std::setw(9)
                  << (workload.cacheSensitive ? "C-Sens" : "C-InSens");

        CompressionEngines engines{GpuConfig{}};
        for (const auto &line : lines)
            engines.sc.trainLine(line);
        engines.sc.rebuildCodes();
        for (const CompressorId id : kAlgorithmIds) {
            Compressor &engine = *engines.get(id);
            double bits = 0;
            for (const auto &line : lines)
                bits += engine.compress(line).sizeBits;
            const double ratio =
                lines.size() * static_cast<double>(kLineBits) / bits;
            geo_sum[id] += std::log(ratio);
            std::cout << std::right << std::fixed << std::setprecision(2)
                      << std::setw(9) << ratio;
        }
        std::cout << "\n";
    }

    std::cout << std::left << std::setw(15) << "geomean";
    for (const CompressorId id : kAlgorithmIds) {
        std::cout << std::right << std::fixed << std::setprecision(2)
                  << std::setw(9)
                  << std::exp(geo_sum[id] / n_workloads);
    }
    std::cout << "\n";
    return 0;
}
