/**
 * @file
 * Table I: the algorithm comparison — modelled decompression latency,
 * exploited value locality and measured compression ratio on canonical
 * value corpora, plus google-benchmark microbenchmarks of the software
 * engines' encode/decode throughput.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <iomanip>
#include <iostream>

#include "common/rng.hh"
#include "compress/engines.hh"
#include "mem/memory_image.hh"
#include "workloads/value_gens.hh"

using namespace latte;

namespace
{

using Line = std::array<std::uint8_t, kLineBytes>;

std::vector<Line>
corpus(std::uint64_t seed, unsigned n)
{
    // A blend of the value profiles the workloads use.
    std::vector<std::shared_ptr<LineGenerator>> gens = {
        std::make_shared<IntArrayGen>(seed, 1000, 3, 5),
        std::make_shared<IntArrayGen>(seed ^ 1, 5, 50000, 0),
        std::make_shared<PaletteGen>(seed ^ 2, 64, true, 1.2, 0.15),
        std::make_shared<PointerArrayGen>(seed ^ 3, 0x7f0000000000ull,
                                          1 << 20),
        std::make_shared<ZeroGen>(),
    };
    std::vector<Line> lines(n);
    for (unsigned i = 0; i < n; ++i)
        gens[i % gens.size()]->generate(i * 128, lines[i]);
    return lines;
}

/** The five engines at default timings, SC trained on @p lines. */
CompressionEngines
trainedEngines(const std::vector<Line> &lines)
{
    CompressionEngines engines{GpuConfig{}};
    for (const auto &line : lines)
        engines.sc.trainLine(line);
    engines.sc.rebuildCodes();
    return engines;
}

void
compressThroughput(benchmark::State &state)
{
    const auto id = static_cast<CompressorId>(state.range(0));
    const auto lines = corpus(7, 256);
    CompressionEngines engines = trainedEngines(lines);
    Compressor &engine = *engines.get(id);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            engine.compress(lines[i++ % lines.size()]));
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kLineBytes);
    state.SetLabel(compressorName(id));
}

void
decompressThroughput(benchmark::State &state)
{
    const auto id = static_cast<CompressorId>(state.range(0));
    const auto lines = corpus(7, 256);
    CompressionEngines engines = trainedEngines(lines);
    Compressor &engine = *engines.get(id);
    std::vector<CompressedLine> compressed;
    compressed.reserve(lines.size());
    for (const auto &line : lines)
        compressed.push_back(engine.compress(line));
    std::size_t i = 0;
    Line scratch;
    for (auto _ : state) {
        engine.decompressInto(compressed[i++ % compressed.size()],
                              scratch);
        benchmark::DoNotOptimize(scratch.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kLineBytes);
    state.SetLabel(compressorName(id));
}

void
printTableOne()
{
    const auto lines = corpus(7, 1024);
    std::cout << "=== Table I: algorithm comparison (mixed corpus) "
                 "===\n";
    std::cout << std::left << std::setw(10) << "algo" << std::right
              << std::setw(12) << "decomp(cy)" << std::setw(12)
              << "comp(cy)" << std::setw(10) << "ratio"
              << "   locality\n";
    const char *locality[] = {"", "spatial", "spatial", "both",
                              "spatial", "temporal"};
    CompressionEngines engines = trainedEngines(lines);
    for (const CompressorId id : kAlgorithmIds) {
        Compressor &engine = *engines.get(id);
        double bits = 0;
        for (const auto &line : lines)
            bits += engine.compress(line).sizeBits;
        const double ratio =
            lines.size() * static_cast<double>(kLineBits) / bits;
        std::cout << std::left << std::setw(10) << compressorName(id)
                  << std::right << std::setw(12)
                  << engine.decompressLatency() << std::setw(12)
                  << engine.compressLatency() << std::fixed
                  << std::setprecision(2) << std::setw(10) << ratio
                  << "   " << locality[static_cast<int>(id)] << "\n";
    }
    std::cout << "\n";
}

} // namespace

BENCHMARK(compressThroughput)
    ->Arg(static_cast<int>(CompressorId::Bdi))
    ->Arg(static_cast<int>(CompressorId::Fpc))
    ->Arg(static_cast<int>(CompressorId::CpackZ))
    ->Arg(static_cast<int>(CompressorId::Bpc))
    ->Arg(static_cast<int>(CompressorId::Sc));

BENCHMARK(decompressThroughput)
    ->Arg(static_cast<int>(CompressorId::Bdi))
    ->Arg(static_cast<int>(CompressorId::Fpc))
    ->Arg(static_cast<int>(CompressorId::CpackZ))
    ->Arg(static_cast<int>(CompressorId::Bpc))
    ->Arg(static_cast<int>(CompressorId::Sc));

int
main(int argc, char **argv)
{
    printTableOne();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
