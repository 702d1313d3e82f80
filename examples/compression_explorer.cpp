/**
 * @file
 * Compression explorer: generate cache lines with each of the library's
 * value profiles and report every algorithm's compression ratio and
 * latency — a miniature of the paper's Table I / Figure 2 analysis,
 * usable on your own generator parameters.
 */

#include <iomanip>
#include <iostream>
#include <memory>

#include "compress/engines.hh"
#include "mem/memory_image.hh"
#include "workloads/value_gens.hh"

using namespace latte;

namespace
{

struct Profile
{
    const char *name;
    std::shared_ptr<LineGenerator> gen;
};

} // namespace

int
main()
{
    std::vector<Profile> profiles = {
        {"zeros", std::make_shared<ZeroGen>()},
        {"small-delta ints", std::make_shared<IntArrayGen>(7, 100, 2, 3)},
        {"large-stride ints",
         std::make_shared<IntArrayGen>(8, 5, 50000, 0)},
        {"pointers",
         std::make_shared<PointerArrayGen>(9, 0x7f0000000000ull,
                                           1ull << 20)},
        {"float palette (64)",
         std::make_shared<PaletteGen>(10, 64, true)},
        {"noisy floats", std::make_shared<FloatNoiseGen>(11, 1.0f, 1.0f)},
    };

    constexpr unsigned kLines = 512;

    std::cout << std::left << std::setw(20) << "profile";
    for (const CompressorId id : kAlgorithmIds)
        std::cout << std::setw(10) << compressorName(id);
    std::cout << "\n";

    for (const auto &profile : profiles) {
        std::cout << std::left << std::setw(20) << profile.name
                  << std::fixed << std::setprecision(2);
        // SC needs trained codes: give it one pass over the data.
        CompressionEngines engines{GpuConfig{}};
        std::array<std::uint8_t, kLineBytes> line;
        for (unsigned i = 0; i < kLines; ++i) {
            profile.gen->generate(i * kLineBytes, line);
            engines.sc.trainLine(line);
        }
        engines.sc.rebuildCodes();

        for (const CompressorId id : kAlgorithmIds) {
            double total_bits = 0;
            for (unsigned i = 0; i < kLines; ++i) {
                profile.gen->generate(i * kLineBytes, line);
                total_bits += engines.get(id)->compress(line).sizeBits;
            }
            const double ratio =
                kLines * double{kLineBits} / total_bits;
            std::cout << std::setw(10) << ratio;
        }
        std::cout << "\n";
    }

    std::cout << "\nDecompression latencies (cycles): ";
    CompressionEngines engines{GpuConfig{}};
    for (const CompressorId id : kAlgorithmIds) {
        std::cout << compressorName(id) << "="
                  << engines.get(id)->decompressLatency() << " ";
    }
    std::cout << "\n";
    return 0;
}
