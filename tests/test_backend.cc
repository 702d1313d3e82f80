/**
 * @file
 * The CompressorBackend dispatch layer: registry shape, name
 * resolution, the L1's probe memo (against a copying-memo oracle),
 * and — the load-bearing property —
 * bit-identical LineMeta output
 * from every SIMD tier, pinned by a randomized differential fuzzer
 * against the scalar kernels. Also pins that the backend never leaks
 * into the result-cache fingerprint: a result computed by one backend
 * must be a cache hit for every other.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <random>
#include <span>
#include <tuple>
#include <vector>

#include "compress/backend.hh"
#include "compress/engines.hh"
#include "cache/compress_memo.hh"
#include "mem/memory_image.hh"
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

/**
 * The memo as it was before entries pointed into the memory image: each
 * entry holds its own copy of the line. The MemoDiff oracle.
 */
class CopyingMemo : public StatGroup
{
  public:
    explicit CopyingMemo(StatGroup *parent)
        : StatGroup("copying_memo", parent),
          hits(this, "hits", "probe results served from the memo"),
          misses(this, "misses", "probe results computed and cached"),
          entries_(CompressMemo::kEntries)
    {}

    LineMeta
    probe(Compressor &engine, std::span<const std::uint8_t> line,
          std::uint32_t generation)
    {
        latte_assert(line.size() == kLineBytes);
        const CompressorId mode = engine.id();
        Entry &entry = entries_[indexOf(line, mode, generation)];
        if (entry.valid && entry.mode == mode &&
            entry.generation == generation &&
            std::memcmp(entry.bytes.data(), line.data(), kLineBytes) == 0) {
            ++hits;
            return entry.meta;
        }
        ++misses;
        entry.valid = true;
        entry.mode = mode;
        entry.generation = generation;
        std::memcpy(entry.bytes.data(), line.data(), kLineBytes);
        entry.meta = engine.probe(line);
        return entry.meta;
    }

    Counter hits;
    Counter misses;

  private:
    struct Entry
    {
        bool valid = false;
        CompressorId mode = CompressorId::None;
        std::uint32_t generation = 0;
        LineMeta meta;
        std::array<std::uint8_t, kLineBytes> bytes;
    };

    static std::size_t
    indexOf(std::span<const std::uint8_t> line, CompressorId mode,
            std::uint32_t generation)
    {
        std::uint64_t h = 0x9e3779b97f4a7c15ull ^
                          (static_cast<std::uint64_t>(mode) << 32) ^
                          generation;
        for (unsigned off = 0; off < kLineBytes; off += 8) {
            std::uint64_t word;
            std::memcpy(&word, line.data() + off, 8);
            h ^= word;
            h *= 0xbf58476d1ce4e5b9ull;
            h ^= h >> 27;
        }
        h ^= h >> 31;
        return static_cast<std::size_t>(h % CompressMemo::kEntries);
    }

    std::vector<Entry> entries_;
};

/** Line n of the image holds pattern (n * odd) % patterns. */
class PatternGen : public LineGenerator
{
  public:
    explicit PatternGen(const std::vector<Line> &patterns)
        : patterns_(patterns)
    {}

    void
    generate(Addr line_addr, std::span<std::uint8_t> out) override
    {
        const std::uint64_t n = line_addr / kLineBytes;
        const Line &pattern =
            patterns_[(n * 0x9e3779b1ull) % patterns_.size()];
        std::memcpy(out.data(), pattern.data(), kLineBytes);
    }

  private:
    const std::vector<Line> &patterns_;
};

/** One MemoDiff stream. */
struct MemoDiffCase
{
    std::uint64_t seed;
    /** Distinct line contents the image starts with. */
    unsigned patterns;
    /** Line addresses probed; the first `hot` take 3/4 of the probes. */
    unsigned addresses;
    unsigned hot;
    /** Probes between two image writes; 0 writes nothing. */
    unsigned rewriteEvery = 0;
    /** Probes between two SC code-book rebuilds; 0 keeps one book. */
    unsigned rebuildEvery = 0;
    unsigned probes = 100000;
};

/** What a MemoDiff stream exercised. */
struct MemoDiffSeen
{
    std::uint64_t hits = 0;
    /** Hits on an entry filled from another line with equal bytes. */
    std::uint64_t equalBytesHits = 0;
    /** Misses on a key that had been filled before under its generation. */
    std::uint64_t refillMisses = 0;
    /** Misses on SC bytes filled before under an older generation. */
    std::uint64_t newGenerationMisses = 0;
    std::uint64_t writes = 0;
};

/**
 * Probe a CompressMemo and the CopyingMemo with the same image lines
 * under all five engines; both must hit or miss together and answer
 * the same LineMeta at every step.
 */
MemoDiffSeen
runMemoDiff(const MemoDiffCase &c)
{
    const auto gens = profileGens(c.seed);
    std::vector<Line> patterns(c.patterns);
    for (unsigned i = 0; i < c.patterns; ++i)
        gens[i % gens.size()]->generate(i * kLineBytes, patterns[i]);
    CompressionEngines engines = trainedEngines(patterns);
    MemoryImage mem;
    mem.addRegion(0, Addr{c.addresses} * kLineBytes,
                  std::make_shared<PatternGen>(patterns));

    StatGroup root("root");
    CompressMemo memo(&root);
    CopyingMemo oracle(&root);
    Compressor *cycle[] = {&engines.bdi, &engines.fpc, &engines.sc,
                           &engines.bpc, &engines.cpack};
    std::mt19937_64 rng(c.seed);
    const auto pickAddr = [&] {
        const unsigned n = (rng() & 3) ? rng() % c.hot : rng() % c.addresses;
        return Addr{n} * kLineBytes;
    };

    // The line each key's entry was last filled from, and the newest
    // SC generation each content was probed under.
    using Key = std::tuple<Line, CompressorId, std::uint32_t>;
    std::map<Key, const MemoryImage::Line *> filled_from;
    std::map<Line, std::uint32_t> sc_generation;
    MemoDiffSeen seen;
    for (unsigned i = 0; i < c.probes; ++i) {
        if (c.rewriteEvery && i % c.rewriteEvery == 0) {
            const Addr dst = pickAddr();
            switch (rng() % 4) {
              case 0: // another line's bytes
                mem.writeBytes(dst, mem.line(pickAddr()));
                break;
              case 1: { // the same bytes again
                const Line same = mem.line(dst);
                mem.writeBytes(dst, same);
                break;
              }
              case 2: { // one word changed
                const std::uint32_t word = static_cast<std::uint32_t>(rng());
                std::uint8_t bytes[4];
                std::memcpy(bytes, &word, 4);
                mem.writeBytes(dst + 4 * (rng() % 32), bytes);
                break;
              }
              default: // back to a starting pattern
                mem.writeBytes(dst, patterns[rng() % patterns.size()]);
                break;
            }
            ++seen.writes;
        }
        if (c.rebuildEvery && i > 0 && i % c.rebuildEvery == 0) {
            for (unsigned k = 0; k < 16; ++k)
                engines.sc.trainLine(mem.line(pickAddr()));
            engines.sc.rebuildCodes();
        }

        Compressor &engine = *cycle[rng() % std::size(cycle)];
        const bool sc = engine.id() == CompressorId::Sc;
        const std::uint32_t generation = sc ? engines.sc.generation() : 0;
        const MemoryImage::Line &line = mem.line(pickAddr());

        const std::uint64_t hits_before = memo.hits.count();
        const std::uint64_t oracle_hits_before = oracle.hits.count();
        const LineMeta got = memo.probe(engine, line, generation);
        const LineMeta want = oracle.probe(engine, line, generation);
        const bool hit = memo.hits.count() != hits_before;
        EXPECT_EQ(hit, oracle.hits.count() != oracle_hits_before)
            << "probe " << i;
        expectSameMeta(got, want, "memo", i);
        if (::testing::Test::HasFailure())
            return seen;

        const auto [it, first] = filled_from.try_emplace(
            Key{line, engine.id(), generation}, &line);
        if (hit) {
            ++seen.hits;
            seen.equalBytesHits += it->second != &line;
        } else {
            seen.refillMisses += !first;
            it->second = &line;
        }
        if (sc) {
            const auto [gen_it, new_bytes] =
                sc_generation.try_emplace(line, generation);
            seen.newGenerationMisses +=
                !hit && !new_bytes && gen_it->second != generation;
            gen_it->second = generation;
        }
    }
    EXPECT_EQ(memo.hits.count(), oracle.hits.count());
    EXPECT_EQ(memo.misses.count(), oracle.misses.count());
    EXPECT_EQ(memo.hits.count() + memo.misses.count(), c.probes);
    return seen;
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
    other.options.tuning.compressionMemo = false;
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

TEST(Backend, MemoMatchesEngineProbe)
{
    BackendGuard guard;
    // Twice as many lines as table entries, each under three engines,
    // so most keys share an index with others: entries get reclaimed,
    // and a key probed again after a reclaim must miss and still answer
    // what the engine answers.
    const auto gens = profileGens(23);
    std::vector<Line> pool;
    for (unsigned i = 0; i < 2 * CompressMemo::kEntries; ++i) {
        Line line;
        gens[i % gens.size()]->generate(i * kLineBytes, line);
        pool.push_back(line);
    }

    // The memo keeps pointers into pool, which no longer changes.
    StatGroup root("root");
    CompressMemo memo(&root);
    CompressionEngines engines = trainedEngines(pool);
    const std::uint32_t sc_gen = engines.sc.generation();
    Compressor *cycle[] = {&engines.bdi, &engines.fpc, &engines.sc};

    std::mt19937_64 rng(99);
    std::uint64_t calls = 0;
    std::uint64_t reprobe_misses = 0;
    std::vector<std::array<bool, 3>> seen(pool.size());
    for (unsigned i = 0; i < 8 * pool.size(); ++i) {
        const std::size_t pick = rng() % pool.size();
        const unsigned which = static_cast<unsigned>(rng() % 3);
        Compressor &engine = *cycle[which];
        const std::uint32_t generation =
            engine.id() == CompressorId::Sc ? sc_gen : 0;

        const std::uint64_t misses_before = memo.misses.count();
        const LineMeta answer = memo.probe(engine, pool[pick], generation);
        ++calls;
        expectSameMeta(answer, engine.probe(pool[pick]), "memo", i);
        if (memo.misses.count() != misses_before && seen[pick][which])
            ++reprobe_misses;
        seen[pick][which] = true;

        // An immediate repeat finds the entry the first call left.
        const std::uint64_t hits_before = memo.hits.count();
        const LineMeta repeat = memo.probe(engine, pool[pick], generation);
        ++calls;
        EXPECT_EQ(memo.hits.count(), hits_before + 1) << "repeat " << i;
        expectSameMeta(repeat, answer, "repeat", i);
    }
    EXPECT_GT(reprobe_misses, 0u) << "no index collision was exercised";
    EXPECT_EQ(memo.hits.count() + memo.misses.count(), calls);
}

TEST(Backend, MemoMissesOnNewScGeneration)
{
    BackendGuard guard;
    const auto gens = profileGens(29);
    std::vector<Line> pool;
    for (unsigned i = 0; i < 64; ++i) {
        Line line;
        gens[i % gens.size()]->generate(i * kLineBytes, line);
        pool.push_back(line);
    }
    std::sort(pool.begin(), pool.end());
    pool.erase(std::unique(pool.begin(), pool.end()), pool.end());

    // The memo keeps pointers into pool, which no longer changes.
    StatGroup root("root");
    CompressMemo memo(&root);
    CompressionEngines engines = trainedEngines(pool);
    ScCompressor *sc = &engines.sc;
    const std::uint32_t old_gen = sc->generation();
    std::uint64_t calls = 0;
    for (const Line &line : pool) {
        memo.probe(*sc, line, old_gen);
        ++calls;
    }
    // The last line is certainly resident: an immediate repeat hits.
    const std::uint64_t hits_before = memo.hits.count();
    memo.probe(*sc, pool.back(), old_gen);
    ++calls;
    ASSERT_EQ(memo.hits.count(), hits_before + 1);

    // Retrain on other values and rebuild: the same bytes under the
    // new code book miss and take the new book's sizes. Walk back from
    // the line known to be resident under the old generation.
    for (unsigned i = 0; i < 64; ++i) {
        Line line;
        gens[1]->generate((1000 + i) * kLineBytes, line);
        sc->trainLine(line);
    }
    const std::uint32_t new_gen = sc->rebuildCodes();
    ASSERT_NE(new_gen, old_gen);
    for (std::size_t i = pool.size(); i-- > 0;) {
        const std::uint64_t misses_before = memo.misses.count();
        const LineMeta meta = memo.probe(*sc, pool[i], new_gen);
        ++calls;
        EXPECT_EQ(memo.misses.count(), misses_before + 1) << "line " << i;
        expectSameMeta(meta, sc->probe(pool[i]), "new generation", i);
        EXPECT_EQ(meta.generation, new_gen);
    }
    EXPECT_EQ(memo.hits.count() + memo.misses.count(), calls);
}

TEST(MemoDiff, EqualBytesAtDifferentAddresses)
{
    BackendGuard guard;
    // 64 contents over 16384 addresses: most hits compare another
    // line's bytes, not the same line.
    const MemoDiffSeen seen = runMemoDiff({.seed = 31, .patterns = 64,
                                           .addresses = 16384,
                                           .hot = 4096});
    EXPECT_GT(seen.hits, 50000u);
    EXPECT_GT(seen.equalBytesHits, seen.hits / 2);
}

TEST(MemoDiff, SlotCollisions)
{
    BackendGuard guard;
    // 8192 contents x 5 engines over 2048 entries: keys keep evicting
    // each other, and a key probed again after an eviction must miss.
    const MemoDiffSeen seen = runMemoDiff({.seed = 37, .patterns = 8192,
                                           .addresses = 8192,
                                           .hot = 512});
    EXPECT_GT(seen.refillMisses, 10000u);
    EXPECT_GT(seen.hits, 10000u);
}

TEST(MemoDiff, ScGenerationChanges)
{
    BackendGuard guard;
    // A new code book every 500 probes: SC entries of the old book
    // must miss on the same bytes, the other engines' must still hit.
    const MemoDiffSeen seen = runMemoDiff({.seed = 41, .patterns = 256,
                                           .addresses = 2048,
                                           .hot = 256,
                                           .rebuildEvery = 500});
    EXPECT_GT(seen.newGenerationMisses, 1000u);
    EXPECT_GT(seen.hits, 50000u);
}

TEST(MemoDiff, LinesRewrittenBetweenProbes)
{
    BackendGuard guard;
    // A write every 3 probes, mostly to the hot lines: an entry filled
    // from a line's old bytes must still match those bytes, and only
    // those, after the line changes.
    const MemoDiffSeen seen = runMemoDiff({.seed = 43, .patterns = 128,
                                           .addresses = 4096,
                                           .hot = 256,
                                           .rewriteEvery = 3,
                                           .rebuildEvery = 5000});
    EXPECT_GT(seen.writes, 30000u);
    EXPECT_GT(seen.equalBytesHits, 10000u);
    EXPECT_GT(seen.refillMisses, 0u);
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
