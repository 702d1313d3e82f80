/**
 * @file
 * Tests for the workload zoo and value generators: catalog integrity,
 * determinism, compression affinities of the value profiles, the kernel
 * geometry limits the SM model depends on, and line-level address
 * generation against the per-lane definition.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <set>

#include "compress/engines.hh"
#include "workloads/synthetic_kernel.hh"
#include "workloads/value_gens.hh"
#include "workloads/zoo.hh"

using namespace latte;

// ----------------------------------------------------------------- zoo

TEST(Zoo, CatalogIsComplete)
{
    const auto &zoo = workloadZoo();
    EXPECT_GE(zoo.size(), 20u) << "Table III lists 20+ workloads";

    std::set<std::string> abbrs;
    for (const auto &workload : zoo) {
        EXPECT_TRUE(abbrs.insert(workload.abbr).second)
            << "duplicate abbreviation " << workload.abbr;
        EXPECT_FALSE(workload.fullName.empty());
        EXPECT_FALSE(workload.kernels.empty());
        EXPECT_TRUE(workload.setup != nullptr);
    }

    // The paper's headline workloads must be present.
    for (const char *abbr : {"SS", "KM", "MM", "BC", "CLR", "FW", "PRK",
                             "DJK", "MIS", "PF", "BFS", "HW"}) {
        EXPECT_NE(findWorkload(abbr), nullptr) << abbr;
    }
    EXPECT_EQ(findWorkload("NOPE"), nullptr);
}

TEST(Zoo, CategoriesSplitBothWays)
{
    EXPECT_GE(workloadsByCategory(true).size(), 8u);
    EXPECT_GE(workloadsByCategory(false).size(), 8u);
}

TEST(Zoo, KernelsInstantiateWithValidGeometry)
{
    const GpuConfig cfg;
    for (const auto &workload : workloadZoo()) {
        const auto kernels = makeKernels(workload);
        EXPECT_EQ(kernels.size(), workload.kernels.size());
        for (const auto &kernel : kernels) {
            EXPECT_GE(kernel->numCtas(), 1u);
            EXPECT_GE(kernel->warpsPerCta(), 1u);
            EXPECT_LE(kernel->warpsPerCta(), cfg.maxWarpsPerSm);
            EXPECT_GT(kernel->instructionsPerWarp(), 0u);
        }
    }
}

TEST(Zoo, SetupPopulatesMemory)
{
    for (const auto &workload : workloadZoo()) {
        MemoryImage mem;
        workload.setup(mem);
        // The data region must generate non-trivial content lazily for
        // at least one of a few probed lines (zeros are legal for some
        // generators, so just check the call path works).
        const auto &line = mem.line(0x10000000);
        (void)line;
        SUCCEED();
    }
}

// ------------------------------------------- line-level address generation

namespace
{

constexpr std::uint32_t kLanes = 32;

/**
 * Byte address lane @p lane of a memory instruction reads: the per-lane
 * definition SyntheticKernel::fetch() once evaluated for all 32 lanes.
 */
Addr
perLaneAddr(const KernelSpec &spec, const Pattern &pattern,
            std::uint32_t global_warp, std::uint64_t iter,
            std::uint32_t mem_idx, std::uint32_t lane)
{
    constexpr std::uint64_t kLine = 128;
    const std::uint32_t cta = global_warp / spec.warpsPerCta;
    const std::uint64_t h =
        mixHash(spec.seed + mem_idx * 0x1000193u,
                (static_cast<std::uint64_t>(global_warp) << 24) ^ iter);
    const std::uint64_t slices =
        std::max<std::uint64_t>(1, pattern.sizeBytes / pattern.sliceBytes);
    const std::uint64_t slice_off = (cta % slices) * pattern.sliceBytes;
    const auto hot_span = [&](std::uint64_t hash) {
        const bool hot =
            (hash % 1024) <
            static_cast<std::uint64_t>(pattern.hotFraction * 1024.0);
        return std::max<std::uint64_t>(kLine, hot ? pattern.hotBytes
                                                  : pattern.sliceBytes);
    };

    switch (pattern.kind) {
      case PatternKind::Streaming: {
        const std::uint64_t total_threads =
            static_cast<std::uint64_t>(spec.ctas) * spec.warpsPerCta *
            kLanes;
        const std::uint64_t tid =
            static_cast<std::uint64_t>(global_warp) * kLanes + lane;
        const std::uint64_t idx =
            (tid + iter * total_threads + mem_idx * 977) *
            pattern.elemBytes;
        return pattern.base + idx % pattern.sizeBytes;
      }
      case PatternKind::HotReuse: {
        const std::uint64_t line_idx =
            mixHash(h, 0x51u) % (hot_span(h) / kLine);
        return pattern.base + slice_off + line_idx * kLine +
               (lane * 4) % kLine;
      }
      case PatternKind::Irregular: {
        const std::uint32_t lanes_per_group = std::max<std::uint32_t>(
            1, kLanes / std::max<std::uint32_t>(1,
                                                pattern.divergentLanes));
        const std::uint64_t hg = mixHash(h, lane / lanes_per_group + 11);
        const std::uint64_t line_idx =
            mixHash(hg, 0x7fu) % (hot_span(hg) / kLine);
        return pattern.base + slice_off + line_idx * kLine +
               (lane * 4) % kLine;
      }
      case PatternKind::Tiled: {
        const std::uint64_t lines_in_slice =
            std::max<std::uint64_t>(1, pattern.sliceBytes / kLine);
        const std::uint64_t line_idx =
            (iter + mem_idx * 7 + (global_warp % spec.warpsPerCta) * 3) %
            lines_in_slice;
        return pattern.base + slice_off + line_idx * kLine +
               (lane * 4) % kLine;
      }
    }
    return kBadAddr;
}

/** Body length of @p phase in instructions. */
std::uint64_t
bodyOf(const PhaseSpec &phase)
{
    return phase.loadsPerIter + phase.aluPerIter + phase.storesPerIter;
}

/**
 * The lines instruction @p pc of @p global_warp touches, by definition:
 * every lane's line, sorted and deduplicated (empty for ALU and Exit).
 * Also reports the pattern of a memory instruction.
 */
std::vector<Addr>
oracleLines(const KernelSpec &spec, std::uint32_t global_warp,
            std::uint64_t pc, const Pattern **pattern_out = nullptr)
{
    std::uint64_t start = 0;
    std::uint64_t iter_start = 0;
    for (const PhaseSpec &phase : spec.phases) {
        const std::uint64_t body = bodyOf(phase);
        if (pc >= start + body * phase.iterations) {
            start += body * phase.iterations;
            iter_start += phase.iterations;
            continue;
        }
        const std::uint64_t slot = (pc - start) % body;
        const std::uint64_t iter = iter_start + (pc - start) / body;
        std::uint32_t mem_idx = static_cast<std::uint32_t>(slot);
        if (slot >= phase.loadsPerIter + phase.aluPerIter)
            mem_idx += 64; // a store
        else if (slot >= phase.loadsPerIter)
            return {}; // ALU
        std::vector<Addr> lines;
        for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
            lines.push_back(MemoryImage::lineAddr(perLaneAddr(
                spec, phase.pattern, global_warp, iter, mem_idx, lane)));
        }
        std::sort(lines.begin(), lines.end());
        lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
        if (pattern_out)
            *pattern_out = &phase.pattern;
        return lines;
    }
    return {};
}

/** Compare fetch() with the oracle; count compared memory instructions. */
void
expectOracleLines(SyntheticKernel &kernel, std::uint32_t global_warp,
                  std::uint64_t pc, std::map<PatternKind, unsigned> &seen)
{
    const DecodedInstr instr = kernel.fetch(global_warp, pc);
    const Pattern *pattern = nullptr;
    const std::vector<Addr> expected =
        oracleLines(kernel.spec(), global_warp, pc, &pattern);
    const std::vector<Addr> lines(instr.laneAddrs.begin(),
                                  instr.laneAddrs.end());
    EXPECT_EQ(lines, expected)
        << kernel.name() << " warp " << global_warp << " pc " << pc;
    if (pattern)
        ++seen[pattern->kind];
}

} // namespace

TEST(LineFetch, ZooKernelsMatchPerLaneOracle)
{
    std::mt19937_64 rng(3);
    std::map<PatternKind, unsigned> seen;
    for (const auto &workload : workloadZoo()) {
        for (const std::uint64_t seed : {0, 1}) {
            for (const auto &kernel : makeKernels(workload, seed)) {
                const std::uint32_t warps =
                    kernel->numCtas() * kernel->warpsPerCta();
                std::vector<std::uint32_t> sample = {
                    0, 1, kernel->warpsPerCta(), warps - 1};
                for (int i = 0; i < 4; ++i)
                    sample.push_back(rng() % warps);
                // The first bodies of every phase, then random pcs.
                std::uint64_t start = 0;
                for (const PhaseSpec &phase : kernel->spec().phases) {
                    const std::uint64_t len =
                        bodyOf(phase) * phase.iterations;
                    for (const std::uint32_t warp : sample) {
                        if (warp >= warps)
                            continue;
                        for (std::uint64_t pc = start;
                             pc < start + std::min<std::uint64_t>(
                                              len, 3 * bodyOf(phase));
                             ++pc) {
                            expectOracleLines(*kernel, warp, pc, seen);
                        }
                        for (int i = 0; i < 32; ++i) {
                            expectOracleLines(*kernel, warp,
                                              start + rng() % len, seen);
                        }
                    }
                    start += len;
                }
                ASSERT_FALSE(::testing::Test::HasFailure());
            }
        }
    }
    for (const PatternKind kind :
         {PatternKind::Streaming, PatternKind::HotReuse,
          PatternKind::Irregular, PatternKind::Tiled}) {
        EXPECT_GT(seen[kind], 1000u) << static_cast<int>(kind);
    }
}

TEST(LineFetch, RandomPatternsMatchPerLaneOracle)
{
    std::mt19937_64 rng(5);
    std::map<PatternKind, unsigned> seen;
    const std::uint32_t divergent[] = {0, 1, 3, 5, 8, 32, 40};
    for (int trial = 0; trial < 600; ++trial) {
        KernelSpec spec;
        spec.ctas = 1 + rng() % 300;
        spec.warpsPerCta = 1 + rng() % 16;
        spec.seed = rng();
        for (std::uint64_t p = 1 + rng() % 3; p > 0; --p) {
            PhaseSpec phase;
            phase.iterations = 1 + rng() % 400;
            phase.loadsPerIter = 1 + rng() % 3;
            phase.aluPerIter = rng() % 3;
            phase.storesPerIter = rng() % 3;
            Pattern &pattern = phase.pattern;
            pattern.kind = static_cast<PatternKind>(rng() % 4);
            // Unaligned base and slice half the time; region sizes that
            // are and are not powers of two, down to one line, so a
            // Streaming warp often wraps at sizeBytes (several times
            // for wide elements).
            pattern.base = 0x10000000 + (rng() % 2 ? 0 : rng() % 4096);
            pattern.sizeBytes = rng() % 2 ? std::uint64_t{128}
                                                << (rng() % 16)
                                          : 128 + rng() % (1 << 20);
            pattern.sliceBytes =
                rng() % 2 ? 128 * (1 + rng() % 64) : 1 + rng() % 20000;
            pattern.hotBytes = rng() % (pattern.sliceBytes + 1);
            pattern.hotFraction = static_cast<double>(rng() % 1001) / 1000;
            pattern.divergentLanes = divergent[rng() % 7];
            pattern.elemBytes = static_cast<std::uint32_t>(rng() % 257);
            spec.phases.push_back(phase);
        }
        SyntheticKernel kernel(spec);
        const std::uint32_t warps = spec.ctas * spec.warpsPerCta;
        for (int i = 0; i < 200; ++i) {
            expectOracleLines(kernel, rng() % warps,
                              rng() % kernel.instructionsPerWarp(), seen);
        }
        ASSERT_FALSE(::testing::Test::HasFailure()) << "trial " << trial;
    }
    for (const PatternKind kind :
         {PatternKind::Streaming, PatternKind::HotReuse,
          PatternKind::Irregular, PatternKind::Tiled}) {
        EXPECT_GT(seen[kind], 5000u) << static_cast<int>(kind);
    }
}

// ------------------------------------------------------ value profiles

namespace
{

using Line = std::array<std::uint8_t, 128>;

double
ratioUnder(LineGenerator &gen, CompressorId id, unsigned n_lines = 256)
{
    CompressionEngines engines{GpuConfig{}};
    std::vector<Line> lines(n_lines);
    for (unsigned i = 0; i < n_lines; ++i)
        gen.generate(i * 128, lines[i]);
    if (id == CompressorId::Sc) {
        for (const auto &line : lines)
            engines.sc.trainLine(line);
        engines.sc.rebuildCodes();
    }
    double bits = 0;
    for (const auto &line : lines)
        bits += engines.get(id)->compress(line).sizeBits;
    return n_lines * 1024.0 / bits;
}

} // namespace

TEST(ValueGens, Deterministic)
{
    IntArrayGen gen(5, 100, 3, 7);
    Line a, b;
    gen.generate(0x1000, a);
    gen.generate(0x1000, b);
    EXPECT_EQ(a, b);
    gen.generate(0x1080, b);
    EXPECT_NE(a, b);
}

TEST(ValueGens, SmallDeltaIntsFavourBdi)
{
    IntArrayGen gen(5, 100, 3, 5);
    EXPECT_GT(ratioUnder(gen, CompressorId::Bdi), 2.0);
}

TEST(ValueGens, LargeStrideRampsFavourBpcOverBdi)
{
    IntArrayGen gen(6, 100, 50000, 0);
    const double bpc = ratioUnder(gen, CompressorId::Bpc);
    const double bdi = ratioUnder(gen, CompressorId::Bdi);
    EXPECT_GT(bpc, 4.0);
    EXPECT_GT(bpc, 2.0 * bdi);
}

TEST(ValueGens, PaletteFavoursScOverBdi)
{
    PaletteGen gen(7, 64, true, 1.2, 0.15);
    const double sc = ratioUnder(gen, CompressorId::Sc);
    const double bdi = ratioUnder(gen, CompressorId::Bdi);
    EXPECT_GT(sc, 2.0);
    EXPECT_LT(bdi, 1.2);
    EXPECT_GT(sc, 1.5 * bdi);
}

TEST(ValueGens, NoiseFractionCapsScRatio)
{
    PaletteGen clean(8, 32, true, 1.2, 0.0);
    PaletteGen noisy(8, 32, true, 1.2, 0.4);
    EXPECT_GT(ratioUnder(clean, CompressorId::Sc),
              ratioUnder(noisy, CompressorId::Sc));
}

/** PaletteGen's binary-search loop before the branch-free pick. */
static std::size_t
loopPick(const std::vector<double> &cdf, double u)
{
    std::size_t lo = 0, hi = cdf.size() - 1;
    while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (cdf[mid] < u)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

TEST(ValueGens, PalettePickMatchesBinarySearchLoop)
{
    std::mt19937_64 rng(17);
    std::uniform_real_distribution<double> uniform(0.0, 1.0);
    const auto expectSamePick = [](const std::vector<double> &cdf, double u,
                                   const char *what) {
        ASSERT_EQ(PaletteGen::pick(cdf, u), loopPick(cdf, u))
            << what << ": " << cdf.size() << " entries, u = " << u;
    };
    const auto check = [&](const std::vector<double> &cdf) {
        for (unsigned k = 0; k < 64; ++k)
            expectSamePick(cdf, uniform(rng), "uniform");
        for (const double entry : cdf) {
            expectSamePick(cdf, entry, "an entry");
            expectSamePick(cdf, std::nextafter(entry, 0.0), "below");
            expectSamePick(cdf, std::nextafter(entry, 2.0), "above");
        }
        // Above every entry the last index is the answer.
        const double top = *std::max_element(cdf.begin(), cdf.end());
        expectSamePick(cdf, std::nextafter(top, 2.0), "above all");
        expectSamePick(cdf, 2.0, "above all");
        expectSamePick(cdf, 0.0, "zero");
    };
    for (std::uint32_t size = 1; size <= 256; ++size) {
        // The generator's own Zipf CDFs, steep and flat.
        check(PaletteGen(size, size, true, 1.2, 0.0).cdf());
        check(PaletteGen(size, size, false, 0.1, 0.0).cdf());
        // Tie-heavy CDFs: runs of equal entries, last pinned to 1.
        std::vector<double> ties(size);
        double acc = 0;
        for (double &entry : ties) {
            acc += (rng() % 3 == 0) ? 1.0 / 8 : 0.0;
            entry = std::min(acc, 1.0);
        }
        ties.back() = 1.0;
        check(ties);
        if (::testing::Test::HasFailure())
            return;
    }
}

TEST(ValueGens, FloatNoiseResistsEverything)
{
    FloatNoiseGen gen(9, 1.0f, 1.0f);
    for (const CompressorId id :
         {CompressorId::Bdi, CompressorId::Fpc, CompressorId::CpackZ}) {
        EXPECT_LT(ratioUnder(gen, id), 1.3)
            << compressorName(id);
    }
}

TEST(ValueGens, PointersFavourWideBaseBdi)
{
    PointerArrayGen gen(10, 0x7f0000000000ull, 1 << 20);
    EXPECT_GT(ratioUnder(gen, CompressorId::Bdi), 1.4);
}

TEST(ValueGens, MixBlendsProfiles)
{
    auto zeros = std::make_shared<ZeroGen>();
    auto noise = std::make_shared<FloatNoiseGen>(11, 1.0f, 1.0f);
    MixGen mix(12, zeros, noise, 0.5);

    unsigned zero_lines = 0;
    Line line;
    for (unsigned i = 0; i < 200; ++i) {
        mix.generate(i * 128, line);
        bool all_zero = true;
        for (const auto byte : line)
            all_zero &= byte == 0;
        zero_lines += all_zero;
    }
    EXPECT_GT(zero_lines, 60u);
    EXPECT_LT(zero_lines, 140u);
}

TEST(ValueGens, MixHashSpreads)
{
    std::set<std::uint64_t> values;
    for (std::uint64_t i = 0; i < 1000; ++i)
        values.insert(mixHash(1, i));
    EXPECT_EQ(values.size(), 1000u);
}
