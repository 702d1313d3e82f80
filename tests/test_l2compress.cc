/**
 * @file
 * Tests for compression below the L1: the CompressionDomain-backed L2
 * (--l2-compress), its latte controller, link compression on the
 * L2<->DRAM channel (--link-compress), the policy-catalogue rows that
 * drive them, and the sweep/fingerprint surface — including the pin
 * that l2.compress=off leaves every existing RunKey fingerprint
 * byte-identical.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "core/driver.hh"
#include "mem/l2cache.hh"
#include "runner/experiment_runner.hh"
#include "runner/json.hh"
#include "runner/result_cache.hh"
#include "runner/sweep_spec.hh"
#include "workloads/zoo.hh"

using namespace latte;
using namespace latte::runner;

namespace
{

/** A cut-down machine so each simulated cell costs milliseconds. */
DriverOptions
tinyOptions()
{
    DriverOptions options;
    options.cfg.numSms = 2;
    options.maxInstructionsPerKernel = 20'000;
    return options;
}

/** A small single-bank L2 whose sets overflow after a few fills. */
GpuConfig
smallL2Config(LevelCompress compress,
              CompressorId algo = CompressorId::Bdi)
{
    GpuConfig cfg;
    cfg.l2.sizeBytes = 8 * 1024; // 32 sets x 2 ways
    cfg.l2.assoc = 2;
    cfg.l2.banks = 1;
    cfg.l2.compress = compress;
    cfg.l2.staticAlgo = algo;
    return cfg;
}

/** Unit-level harness around a directly constructed L2Cache. */
struct L2Harness
{
    explicit L2Harness(const GpuConfig &config)
        : cfg(config), root("root"), noc(cfg, &root), dram(cfg, &root),
          l2(cfg, &noc, &dram, &mem, &root)
    {}

    GpuConfig cfg;
    StatGroup root;
    MemoryImage mem; //!< no regions: zero lines, BDI-compressible
    Interconnect noc;
    DramModel dram;
    L2Cache l2;
};

std::vector<std::string>
dumpAll(const std::vector<RunOutcome> &outcomes)
{
    std::vector<std::string> dumps;
    dumps.reserve(outcomes.size());
    for (const auto &outcome : outcomes)
        dumps.push_back(toJson(outcome).dump());
    return dumps;
}

} // namespace

// ------------------------------------------------------- config surface

TEST(L2Compress, LevelCompressSpecsParseAndRender)
{
    CacheLevelConfig level = CacheLevelConfig::l2Defaults();

    ASSERT_TRUE(parseLevelCompressSpec("static:bpc", level));
    EXPECT_EQ(level.compress, LevelCompress::Static);
    EXPECT_EQ(level.staticAlgo, CompressorId::Bpc);
    EXPECT_EQ(levelCompressSpec(level), "static:bpc");

    ASSERT_TRUE(parseLevelCompressSpec("latte", level));
    EXPECT_EQ(level.compress, LevelCompress::Latte);
    EXPECT_EQ(levelCompressSpec(level), "latte");

    ASSERT_TRUE(parseLevelCompressSpec("off", level));
    EXPECT_EQ(level.compress, LevelCompress::Off);
    EXPECT_EQ(levelCompressSpec(level), "off");

    EXPECT_FALSE(parseLevelCompressSpec("", level));
    EXPECT_FALSE(parseLevelCompressSpec("static", level));
    EXPECT_FALSE(parseLevelCompressSpec("static:", level));
    EXPECT_FALSE(parseLevelCompressSpec("static:nope", level));
    EXPECT_FALSE(parseLevelCompressSpec("adaptive", level));

    CompressorId link = CompressorId::None;
    ASSERT_TRUE(parseLinkCompressSpec("bdi", link));
    EXPECT_EQ(link, CompressorId::Bdi);
    ASSERT_TRUE(parseLinkCompressSpec("off", link));
    EXPECT_EQ(link, CompressorId::None);
    EXPECT_FALSE(parseLinkCompressSpec("zlib", link));
}

TEST(L2Compress, OffKeepsRunKeyFingerprintsByteIdentical)
{
    // The acceptance pin: introducing the l2/link knobs must not move a
    // single pre-existing fingerprint, because toJson(DriverOptions)
    // emits the new keys only when they differ from the defaults.
    // A change to any constant here invalidates every on-disk result
    // cache, so only a change that means to do that may move them.
    DriverOptions defaults;
    EXPECT_EQ(fnv1a(toJson(defaults).dump()), 1351161605896761450ull);

    DriverOptions small = tinyOptions();
    EXPECT_EQ(fnv1a(toJson(small).dump()), 14572293168988380655ull);

    DriverOptions varied;
    varied.cfg.l1.sizeBytes = 32 * 1024;
    varied.cfg.l2.sizeBytes = 1024 * 1024;
    varied.cfg.l2.banks = 16;
    varied.cfg.l1.assoc = 8;
    varied.cfg.l2.minLatency = 150;
    varied.cfg.l1.hitLatency = 2;
    varied.tuning.capacityBenefit = false;
    EXPECT_EQ(fnv1a(toJson(varied).dump()), 10367631729489306292ull);

    // An explicit "off" spec is the default: still no new JSON keys.
    DriverOptions explicit_off;
    ASSERT_TRUE(parseLevelCompressSpec("off", explicit_off.cfg.l2));
    EXPECT_EQ(toJson(explicit_off).dump(), toJson(defaults).dump());

    // Turning a knob on must move the fingerprint (cache separation).
    DriverOptions l2_on;
    ASSERT_TRUE(parseLevelCompressSpec("static:bdi", l2_on.cfg.l2));
    EXPECT_NE(fnv1a(toJson(l2_on).dump()),
              fnv1a(toJson(defaults).dump()));
    DriverOptions link_on;
    ASSERT_TRUE(parseLinkCompressSpec("bdi", link_on.cfg.linkCompress));
    EXPECT_NE(fnv1a(toJson(link_on).dump()),
              fnv1a(toJson(defaults).dump()));
    EXPECT_NE(fnv1a(toJson(link_on).dump()),
              fnv1a(toJson(l2_on).dump()));

    // Each knob's own fingerprint.
    EXPECT_EQ(fnv1a(toJson(l2_on).dump()), 9050859128329338729ull);
    EXPECT_EQ(fnv1a(toJson(link_on).dump()), 15048031166667648099ull);
    DriverOptions l2_latte;
    ASSERT_TRUE(parseLevelCompressSpec("latte", l2_latte.cfg.l2));
    EXPECT_EQ(fnv1a(toJson(l2_latte).dump()), 5243996608206053796ull);
}

TEST(L2Compress, AdaptiveL2RowsKeyOnTheConfigTheyRun)
{
    // A row that turns the adaptive L2 on carries its rule revision in
    // the RunKey exactly as an explicit l2.compress=latte cell does;
    // the other rows key on their request's own options.
    RunRequest request;
    request.workload = findWorkload("KM");
    request.options = tinyOptions();
    DriverOptions l2_latte = tinyOptions();
    ASSERT_TRUE(parseLevelCompressSpec("latte", l2_latte.cfg.l2));
    const std::uint64_t latte_hash = fnv1a(toJson(l2_latte).dump());
    const std::uint64_t plain_hash = fnv1a(toJson(tinyOptions()).dump());

    for (const PolicyKind kind :
         {PolicyKind::L2Latte, PolicyKind::LatteCcL1L2}) {
        request.policy = kind;
        EXPECT_EQ(RunKey::of(request).configHash, latte_hash)
            << policyName(kind);
    }
    for (const PolicyKind kind :
         {PolicyKind::L2StaticBdi, PolicyKind::LatteCc}) {
        request.policy = kind;
        EXPECT_EQ(RunKey::of(request).configHash, plain_hash)
            << policyName(kind);
    }
}

TEST(L2Compress, FpcAndCpackEventsArePricedAtBpc)
{
    // FPC and C-Pack have no energies of their own. Their L2 events
    // cost BPC's, as FPC and C-Pack link transfers do, and only those
    // rows carry the energy-rule revision in the RunKey.
    const CompressorTimings t;
    const std::pair<const char *, const char *> rows[] = {
        {"static:fpc", "gpu.l2.compress.fpc_compressions"},
        {"static:cpack", "gpu.l2.compress.cpack_compressions"},
    };
    for (const auto &[spec, stat] : rows) {
        RunRequest request;
        // DJK's lines compress under both, so the L2 also decompresses.
        request.workload = findWorkload("DJK");
        request.policy = PolicyKind::Baseline;
        request.options = tinyOptions();
        ASSERT_TRUE(parseLevelCompressSpec(spec, request.options.cfg.l2));
        const WorkloadRunResult result = run(request).value();

        UsageCounts usage;
        for (const KernelSnapshot &kernel : result.kernels)
            usage += kernel.usage;
        const std::uint64_t compressions =
            usage.l2FpcCompressions + usage.l2CpackCompressions;
        const std::uint64_t decompressions =
            usage.l2FpcDecompressions + usage.l2CpackDecompressions;
        EXPECT_GT(compressions, 0u) << spec;
        EXPECT_GT(decompressions, 0u) << spec;
        EXPECT_EQ(static_cast<double>(compressions), result.stats.at(stat))
            << spec;
        EXPECT_NEAR(result.energy.l2CompressionMj,
                    (compressions * t.bpcCompressNj +
                     decompressions * t.bpcDecompressNj) * 1e-6,
                    1e-12)
            << spec;
        EXPECT_NE(toJson(request.options).dump().find(
                      "\"l2EnergyRules\":2"),
                  std::string::npos)
            << spec;
    }
    for (const char *spec : {"off", "static:bdi", "static:bpc", "latte"}) {
        DriverOptions options;
        ASSERT_TRUE(parseLevelCompressSpec(spec, options.cfg.l2));
        EXPECT_EQ(toJson(options).dump().find("l2EnergyRules"),
                  std::string::npos)
            << spec;
    }
}

// ---------------------------------------------------- unit-level timing

TEST(L2Compress, StaticInsertHitDecompressAndEvict)
{
    L2Harness h(smallL2Config(LevelCompress::Static, CompressorId::Bdi));
    ASSERT_NE(h.l2.domain(), nullptr);
    EXPECT_EQ(h.l2.controller(), nullptr);

    const std::uint32_t line = h.cfg.l2.lineBytes;
    const std::uint32_t sets = h.cfg.l2.numSets();

    // Read miss: fetched from DRAM, stored compressed (zero lines are
    // BDI's best case).
    const L2Result miss = h.l2.access(0, 0x1000, false);
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(h.l2.misses.value(), 1u);
    EXPECT_EQ(h.l2.compressStats()->insertions.value(), 1u);
    EXPECT_EQ(h.l2.compressStats()->compressedInsertions.value(), 1u);
    EXPECT_EQ(h.l2.compressStats()->bdiCompressions.value(), 1u);

    // Read hit on the compressed line: pays the BDI decompression
    // queue (Eq. 3 at an empty queue: latency + 1) on top of the
    // raw-line hit the uncompressed L2 would serve.
    const Cycles later = miss.readyCycle + 100;
    const L2Result hit = h.l2.access(later, 0x1000, false);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(h.l2.compressStats()->decompressions.value(), 1u);

    L2Harness plain(smallL2Config(LevelCompress::Off));
    plain.l2.access(0, 0x1000, false);
    const L2Result plain_hit = plain.l2.access(later, 0x1000, false);
    EXPECT_EQ(hit.readyCycle,
              plain_hit.readyCycle + h.cfg.timings.bdiDecompress + 1);

    // Overflow one set: distinct tags mapping to set 0 eventually
    // exhaust its 4x tag array and force compressed evictions.
    const std::uint64_t tags = h.cfg.l2.assoc * h.cfg.l2.tagFactor;
    for (std::uint64_t i = 1; i <= tags + 2; ++i) {
        const Addr addr = static_cast<Addr>(i) * sets * line;
        h.l2.access(later + i * 1000, addr, false);
    }
    EXPECT_GT(h.l2.compressStats()->evictions.value(), 0u);
}

TEST(L2Compress, WritesInvalidateAndRefillRaw)
{
    L2Harness h(smallL2Config(LevelCompress::Static, CompressorId::Bdi));

    // Fill compressed, then write the same line: the compressed copy is
    // dropped and re-inserted raw (stores never recompress in place).
    h.l2.access(0, 0x2000, false);
    EXPECT_EQ(h.l2.compressStats()->compressedInsertions.value(), 1u);
    const L2Result write = h.l2.access(500, 0x2000, true);
    EXPECT_TRUE(write.hit);
    EXPECT_EQ(h.l2.compressStats()->writeInvalidations.value(), 1u);
    EXPECT_EQ(h.l2.compressStats()->insertions.value(), 2u);
    EXPECT_EQ(h.l2.compressStats()->compressedInsertions.value(), 1u);

    // A read hit on the now-raw line pays no decompression.
    const L2Result reread = h.l2.access(1000, 0x2000, false);
    EXPECT_TRUE(reread.hit);
    EXPECT_EQ(h.l2.compressStats()->decompressions.value(), 0u);

    // A write miss also fills raw.
    h.l2.access(2000, 0x40000, true);
    EXPECT_EQ(h.l2.compressStats()->insertions.value(), 3u);
    EXPECT_EQ(h.l2.compressStats()->compressedInsertions.value(), 1u);
}

TEST(L2Compress, LinkCompressionShrinksTransfersAndMissLatency)
{
    GpuConfig cfg = smallL2Config(LevelCompress::Off);
    cfg.l2.banks = 12; // concurrent banks, so misses can saturate DRAM
    cfg.linkCompress = CompressorId::Bdi;
    L2Harness h(cfg);
    ASSERT_NE(h.l2.linkStats(), nullptr);

    h.l2.access(0, 0x3000, false);
    EXPECT_EQ(h.l2.linkStats()->transfers.value(), 1u);
    EXPECT_GT(h.l2.linkStats()->bytesSaved.value(), 0u);
    EXPECT_LT(h.l2.linkStats()->bytesMoved.value(),
              h.cfg.l2.lineBytes);

    // The link's benefit is channel occupancy, not unloaded latency (a
    // lone fetch pays compress+decompress for a few saved bus beats).
    // A same-cycle burst of misses spread over all twelve banks
    // saturates the raw channel (one full line per DRAM cycle) while
    // the compressed transfers barely occupy it: the last fetch must
    // complete strictly earlier.
    GpuConfig raw_cfg = smallL2Config(LevelCompress::Off);
    raw_cfg.l2.banks = 12;
    L2Harness raw(raw_cfg);
    const std::uint32_t line = h.cfg.l2.lineBytes;
    Cycles compressed_last = 0;
    Cycles raw_last = 0;
    for (std::uint64_t i = 1; i <= 96; ++i) {
        const Addr addr = 0x100000 + static_cast<Addr>(i) * line;
        compressed_last =
            std::max(compressed_last, h.l2.access(0, addr, false)
                                          .readyCycle);
        raw_last = std::max(raw_last,
                            raw.l2.access(0, addr, false).readyCycle);
    }
    EXPECT_LT(compressed_last, raw_last);
}

TEST(L2Compress, LatteControllerVotesFromL2Signals)
{
    GpuConfig cfg = smallL2Config(LevelCompress::Latte);
    cfg.latte.epAccesses = 64;
    L2Harness h(cfg);
    ASSERT_NE(h.l2.controller(), nullptr);

    // A read-heavy loop over a small working set: enough accesses to
    // cross several EP boundaries and let the dedicated sets duel.
    const std::uint32_t line = h.cfg.l2.lineBytes;
    Cycles now = 0;
    for (int round = 0; round < 8; ++round) {
        for (std::uint32_t i = 0; i < 96; ++i) {
            const L2Result r =
                h.l2.access(now, static_cast<Addr>(i) * line, false);
            now = std::max(now + 3, r.readyCycle);
        }
    }

    const auto &trace = h.l2.controller()->trace();
    ASSERT_FALSE(trace.empty());
    for (const L2TracePoint &point : trace) {
        EXPECT_GE(point.latencyTolerance, 0.0);
    }
    // Zero lines make compression free capacity at no miss cost, so
    // the dueling must settle on a compressed mode, not None.
    EXPECT_NE(h.l2.controller()->currentMode(), CompressorId::None);
    EXPECT_GT(h.l2.compressStats()->compressedInsertions.value(), 0u);
}

// ------------------------------------------------------ policy rows

TEST(L2Compress, PolicyRowsAdjustConfigAndRun)
{
    // NW's integer data is BDI-friendly, so the l2-static-bdi row must
    // actually store compressed lines; the baseline row on the same
    // workload must not touch the L2 compression stats at all.
    const Workload *nw = findWorkload("NW");
    ASSERT_NE(nw, nullptr);

    RunRequest request;
    request.workload = nw;
    request.policy = PolicyKind::L2StaticBdi;
    request.options = tinyOptions();
    const RunOutcome outcome = run(request);
    ASSERT_TRUE(outcome.ok()) << to_string(outcome.error);
    const WorkloadRunResult &result = outcome.value();
    EXPECT_EQ(result.policyLabel, "L2-Static-BDI");
    EXPECT_GT(
        result.stats.at("gpu.l2.compress.compressed_insertions"), 0.0);

    RunRequest base = request;
    base.policy = PolicyKind::Baseline;
    const WorkloadRunResult base_result = run(base).value();
    EXPECT_EQ(base_result.stats.count("gpu.l2.compress.insertions"),
              0u);
    for (const PolicyTracePoint &point : base_result.trace)
        EXPECT_FALSE(point.hasL2);
}

TEST(L2Compress, L2LatteRowBackfillsTheRunTrace)
{
    const Workload *km = findWorkload("KM");
    ASSERT_NE(km, nullptr);

    RunRequest request;
    request.workload = km;
    request.policy = PolicyKind::L2Latte;
    request.options = tinyOptions();
    const RunOutcome outcome = run(request);
    ASSERT_TRUE(outcome.ok()) << to_string(outcome.error);
    const WorkloadRunResult &result = outcome.value();
    EXPECT_EQ(result.policyLabel, "L2-LATTE");

    ASSERT_FALSE(result.trace.empty());
    bool any_l2 = false;
    for (const PolicyTracePoint &point : result.trace) {
        if (point.hasL2) {
            any_l2 = true;
            EXPECT_GE(point.l2Tolerance, 0.0);
        }
    }
    EXPECT_TRUE(any_l2);

    // The trace round-trips through JSON with the per-level fields.
    const Json json = toJson(result);
    WorkloadRunResult restored;
    ASSERT_TRUE(fromJson(json, restored));
    ASSERT_EQ(restored.trace.size(), result.trace.size());
    for (std::size_t i = 0; i < result.trace.size(); ++i) {
        EXPECT_EQ(restored.trace[i].hasL2, result.trace[i].hasL2);
        EXPECT_EQ(restored.trace[i].l2Mode, result.trace[i].l2Mode);
    }
}

// ------------------------------------------------------- sweep surface

TEST(L2Compress, SweepSpecValidatesTheDottedAxes)
{
    SweepSpec spec;
    spec.workloads = {"KM"};
    spec.policies = {"Baseline"};
    spec.axes.push_back(
        {"l2.compress", {Json("off"), Json("static:bdi"), Json("latte")}});
    spec.axes.push_back({"link.compress", {Json("off"), Json("bdi")}});
    EXPECT_EQ(spec.validate(), "");
    EXPECT_EQ(spec.cellCount(), 6u);

    SweepSpec bad = spec;
    bad.axes[0].values.push_back(Json("static:nope"));
    EXPECT_NE(bad.validate(), "");

    SweepSpec bad_link = spec;
    bad_link.axes[1].values.push_back(Json("zlib"));
    EXPECT_NE(bad_link.validate(), "");
}

TEST(L2Compress, KillAndResumeWithL2Axes)
{
    // A fig11-style grid over the l2.compress axis must journal, crash
    // and resume byte-identically — the compressed-L2 knobs reach the
    // RunKey through the config JSON, so cache hits may only be served
    // to cells with the same axis point.
    const std::string dir =
        ::testing::TempDir() + "/latte_l2compress_resume_test";
    std::filesystem::remove_all(dir);

    SweepSpec spec;
    spec.workloads = {"NW", "KM"};
    spec.policies = {"Baseline"};
    spec.axes.push_back(
        {"l2.compress", {Json("off"), Json("static:bdi"), Json("latte")}});
    ASSERT_EQ(spec.validate(), "");

    std::vector<RunRequest> grid;
    std::string error;
    ASSERT_TRUE(spec.expand(grid, &error, tinyOptions())) << error;
    ASSERT_EQ(grid.size(), 6u);

    // Every axis point must hash to its own cache key.
    std::vector<std::string> fingerprints;
    for (const RunRequest &request : grid)
        fingerprints.push_back(RunKey::of(request).fingerprint());
    std::sort(fingerprints.begin(), fingerprints.end());
    EXPECT_EQ(std::adjacent_find(fingerprints.begin(),
                                 fingerprints.end()),
              fingerprints.end());

    RunnerOptions plain;
    plain.threads = 2;
    plain.progress = false;
    const auto reference = ExperimentRunner(plain).runAll(grid);
    for (const RunOutcome &outcome : reference)
        ASSERT_TRUE(outcome.ok()) << to_string(outcome.error);

    // "Crash" after the first three cells, then resume the whole grid.
    RunnerOptions durable = plain;
    durable.cacheDir = dir + "/cache";
    durable.journalPath = dir + "/journal.jsonl";
    {
        const std::vector<RunRequest> partial(grid.begin(),
                                              grid.begin() + 3);
        ExperimentRunner(durable).runAll(partial);
    }
    ExperimentRunner resumed(durable);
    const auto outcomes = resumed.runAll(grid);
    EXPECT_EQ(resumed.stats().journalSkips, 3u);
    EXPECT_EQ(resumed.stats().executed, 3u);
    EXPECT_EQ(dumpAll(outcomes), dumpAll(reference));

    std::filesystem::remove_all(dir);
}
