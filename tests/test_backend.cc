/**
 * @file
 * The CompressorBackend dispatch layer: registry shape, name
 * resolution and — the load-bearing property — bit-identical LineMeta
 * output from every SIMD tier, pinned by a randomized differential
 * fuzzer against the scalar kernels. Also pins that the backend never
 * leaks into the result-cache fingerprint: a result computed by one
 * backend must be a cache hit for every other.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <random>
#include <vector>

#include "compress/backend.hh"
#include "compress/engines.hh"
#include "runner/result_cache.hh"
#include "workloads/value_gens.hh"
#include "workloads/zoo.hh"

using namespace latte;

namespace
{

/** Restore the process-wide backend selection on scope exit. */
class BackendGuard
{
  public:
    BackendGuard() : saved_(&activeCompressorBackend()) {}
    ~BackendGuard() { setCompressorBackend(*saved_); }

  private:
    const CompressorBackend *saved_;
};

using Line = std::array<std::uint8_t, kLineBytes>;

/** The value-profile blend the property tests sweep (plus raw noise). */
std::vector<std::shared_ptr<LineGenerator>>
profileGens(std::uint64_t seed)
{
    return {
        std::make_shared<ZeroGen>(),
        std::make_shared<RandomGen>(seed),
        std::make_shared<IntArrayGen>(seed ^ 1, 1000, 3, 5),
        std::make_shared<IntArrayGen>(seed ^ 2, 5, 60000, 0),
        std::make_shared<PaletteGen>(seed ^ 3, 48, true, 1.2, 0.2),
        std::make_shared<PointerArrayGen>(seed ^ 4, 0x7f0000000000ull,
                                          1 << 20),
        std::make_shared<FloatNoiseGen>(seed ^ 5, 1.0f, 0.8f),
    };
}

/**
 * Lines built from boundary words: values straddling every BDI delta
 * width and FPC class edge (sign flips, 2^(8d-1) +/- 1, repeated
 * bytes, half-word splits), where a vector compare that is off by one
 * in the bias trick would first diverge.
 */
std::vector<Line>
boundaryLines(std::uint64_t seed, unsigned n)
{
    static constexpr std::uint32_t kEdges[] = {
        0u, 1u, 7u, 8u, 0x7fu, 0x80u, 0x81u, 0xffu, 0x100u,
        0x7fffu, 0x8000u, 0x8001u, 0xffffu, 0x10000u,
        0x7f7f7f7fu, 0x80808080u, 0xababababu,
        0x7fffffffu, 0x80000000u, 0x80000001u,
        0xfffffff8u, 0xffffff80u, 0xffff8000u, 0xffffffffu,
    };
    std::mt19937_64 rng(seed);
    std::vector<Line> lines(n);
    for (Line &line : lines) {
        // Half the lines share one random base so the delta layouts
        // engage; the rest are pure edge-word soup.
        const std::uint64_t base = rng();
        const bool based = rng() & 1;
        for (unsigned off = 0; off < kLineBytes; off += 4) {
            std::uint32_t word =
                kEdges[rng() % (sizeof(kEdges) / sizeof(kEdges[0]))];
            if (based && (rng() & 1))
                word = static_cast<std::uint32_t>(base) +
                       (word & 0xffu) - 0x80u;
            std::memcpy(line.data() + off, &word, 4);
        }
    }
    return lines;
}

void
expectSameMeta(const LineMeta &a, const LineMeta &b,
               const char *what, std::size_t index)
{
    ASSERT_EQ(a.algo, b.algo) << what << " line " << index;
    ASSERT_EQ(a.encoding, b.encoding) << what << " line " << index;
    ASSERT_EQ(a.sizeBits, b.sizeBits) << what << " line " << index;
    ASSERT_EQ(a.generation, b.generation) << what << " line " << index;
}

/** The five engines at default timings, SC trained on @p corpus. */
CompressionEngines
trainedEngines(const std::vector<Line> &corpus)
{
    CompressionEngines engines{GpuConfig{}};
    for (const Line &line : corpus)
        engines.sc.trainLine(line);
    engines.sc.rebuildCodes();
    return engines;
}

/** What @p engine.probe() says of each line of @p corpus. */
std::vector<LineMeta>
probeAll(Compressor &engine, const std::vector<Line> &corpus)
{
    std::vector<LineMeta> metas;
    metas.reserve(corpus.size());
    for (const Line &line : corpus)
        metas.push_back(engine.probe(line));
    return metas;
}

} // namespace

TEST(Backend, RegistryLeadsWithScalar)
{
    const auto backends = compressorBackends();
    ASSERT_FALSE(backends.empty());
    EXPECT_STREQ(backends[0].name, "scalar");
    EXPECT_EQ(backends[0].isa, IsaLevel::Scalar);
    EXPECT_TRUE(compressorBackendSupported(backends[0]));
    for (const CompressorBackend &backend : backends) {
        EXPECT_NE(backend.bdiScan, nullptr) << backend.name;
        EXPECT_NE(backend.fpcCountBits, nullptr) << backend.name;
    }
}

TEST(Backend, ResolveNamesAndAuto)
{
    std::string error;
    const CompressorBackend *autoPick =
        resolveCompressorBackend("auto", &error);
    ASSERT_NE(autoPick, nullptr) << error;
    EXPECT_TRUE(compressorBackendSupported(*autoPick));
    EXPECT_EQ(resolveCompressorBackend("", &error), autoPick);

    // Every supported registry row resolves to itself by name.
    for (const CompressorBackend &backend : compressorBackends()) {
        if (!compressorBackendSupported(backend))
            continue;
        EXPECT_EQ(resolveCompressorBackend(backend.name, &error),
                  &backend);
    }

    EXPECT_EQ(resolveCompressorBackend("neon", &error), nullptr);
    EXPECT_NE(error.find("unknown compress backend"), std::string::npos)
        << error;
}

TEST(Backend, SetAndRestoreActive)
{
    BackendGuard guard;
    for (const CompressorBackend &backend : compressorBackends()) {
        if (!compressorBackendSupported(backend))
            continue;
        setCompressorBackend(backend);
        EXPECT_EQ(&activeCompressorBackend(), &backend);
    }
}

TEST(Backend, RunKeyIgnoresCompressBackend)
{
    const Workload *workload = findWorkload("KM");
    ASSERT_NE(workload, nullptr);

    RunRequest scalar_request;
    scalar_request.workload = workload;
    scalar_request.policy = PolicyKind::StaticBdi;
    scalar_request.options.compressBackend = "scalar";

    RunRequest auto_request = scalar_request;
    auto_request.options.compressBackend = "auto";
    RunRequest unset_request = scalar_request;
    unset_request.options.compressBackend.clear();

    // The backend is execution speed only — all tiers are pinned
    // bit-identical — so a result computed under any backend must be a
    // cache hit for every other. A second real axis must still miss.
    const auto scalar_key = runner::RunKey::of(scalar_request);
    EXPECT_EQ(scalar_key, runner::RunKey::of(auto_request));
    EXPECT_EQ(scalar_key, runner::RunKey::of(unset_request));
    EXPECT_EQ(scalar_key.fingerprint(),
              runner::RunKey::of(auto_request).fingerprint());

    RunRequest other = scalar_request;
    other.options.tuning.capacityBenefit = false;
    EXPECT_NE(scalar_key, runner::RunKey::of(other));
}

TEST(Backend, DriverRejectsUnknownBackend)
{
    const Workload *workload = findWorkload("KM");
    ASSERT_NE(workload, nullptr);

    RunRequest request;
    request.workload = workload;
    request.policy = PolicyKind::Baseline;
    request.options.compressBackend = "quantum";

    const RunOutcome outcome = run(request);
    EXPECT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error.code, RunErrorCode::InvalidConfig);
}

TEST(BackendFuzz, DifferentialScalarVsSimd)
{
    BackendGuard guard;
    std::string error;
    const CompressorBackend *scalar =
        resolveCompressorBackend("scalar", &error);
    ASSERT_NE(scalar, nullptr) << error;

    // >= 1e5 lines across the profile blend plus crafted boundary
    // words, compared for all five compressors on every SIMD tier.
    const auto gens = profileGens(31);
    std::vector<Line> corpus;
    for (unsigned i = 0; i < 16384; ++i) {
        Line line;
        gens[i % gens.size()]->generate(i * kLineBytes, line);
        corpus.push_back(line);
    }
    for (const Line &line : boundaryLines(41, 8192))
        corpus.push_back(line);

    std::size_t compared = 0;
    CompressionEngines engines = trainedEngines(corpus);
    for (const CompressorId id : kAlgorithmIds) {
        Compressor &engine = *engines.get(id);

        setCompressorBackend(*scalar);
        const std::vector<LineMeta> golden = probeAll(engine, corpus);

        for (const CompressorBackend &backend : compressorBackends()) {
            if (&backend == scalar ||
                !compressorBackendSupported(backend)) {
                continue;
            }
            setCompressorBackend(backend);
            const std::vector<LineMeta> candidate =
                probeAll(engine, corpus);
            for (std::size_t i = 0; i < corpus.size(); ++i) {
                expectSameMeta(candidate[i], golden[i], backend.name, i);
                ++compared;
            }
        }
    }
    // One SIMD tier on x86 CI hosts: 5 algos x 24576 lines >= 1e5.
    // On hosts with no SIMD tier the fuzzer degenerates to a no-op;
    // the scalar kernels are still covered by every other suite.
    if (compressorBackends().size() > 1 &&
        compressorBackendSupported(compressorBackends()[1])) {
        EXPECT_GE(compared, 100000u);
    }
}
