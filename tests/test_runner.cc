/**
 * @file
 * Tests for the experiment runner subsystem: JSON round-trips, thread
 * count invariance (bit-identical sweeps at -j 1/2/8), the on-disk
 * result cache, RunKey config-hash separation and the policy
 * catalogue.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/driver.hh"
#include "metrics/profiler.hh"
#include "metrics/registry.hh"
#include "runner/arg_parse.hh"
#include "runner/experiment_runner.hh"
#include "runner/json.hh"
#include "runner/result_cache.hh"
#include "runner/sweep.hh"
#include "runner/sweep_spec.hh"
#include "trace/tracer.hh"
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

/** A small mixed grid: 3 workloads x {Baseline, LATTE-CC}. */
std::vector<RunRequest>
smallGrid()
{
    std::vector<RunRequest> requests;
    const char *names[] = {"KM", "PRK", "SS"};
    for (const char *name : names) {
        const Workload *workload = findWorkload(name);
        if (!workload)
            continue;
        for (const PolicyKind kind :
             {PolicyKind::Baseline, PolicyKind::LatteCc}) {
            RunRequest &request = requests.emplace_back();
            request.workload = workload;
            request.policy = kind;
            request.options = tinyOptions();
        }
    }
    return requests;
}

std::vector<std::string>
dumpAll(const std::vector<RunOutcome> &outcomes)
{
    std::vector<std::string> dumps;
    dumps.reserve(outcomes.size());
    for (const auto &outcome : outcomes)
        dumps.push_back(toJson(outcome).dump());
    return dumps;
}

TEST(Runner, ThreadCountInvariance)
{
    const auto requests = smallGrid();
    ASSERT_FALSE(requests.empty());

    std::vector<std::vector<std::string>> dumps;
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        RunnerOptions options;
        options.threads = threads;
        options.progress = false;
        ExperimentRunner runner(options);
        dumps.push_back(dumpAll(runner.runAll(requests)));
    }

    for (std::size_t i = 1; i < dumps.size(); ++i)
        EXPECT_EQ(dumps[0], dumps[i]) << "thread set #" << i;

    // The serialization survives a parse/re-dump cycle byte-identically
    // (numbers, including uint64 counters, round-trip exactly).
    for (const std::string &dump : dumps[0]) {
        std::string error;
        const Json parsed = Json::parse(dump, &error);
        ASSERT_TRUE(error.empty()) << error;
        RunOutcome restored;
        ASSERT_TRUE(fromJson(parsed, restored));
        EXPECT_EQ(toJson(restored).dump(), dump);
    }

    // Older cache entries and journals carry the thread count their run
    // was given; it restores as saved and re-serialises byte-identically.
    std::string error;
    Json::Object older = Json::parse(dumps[0][0], &error).asObject();
    ASSERT_TRUE(error.empty()) << error;
    older["simThreads"] = Json(4);
    const Json older_json(std::move(older));
    RunOutcome restored;
    ASSERT_TRUE(fromJson(older_json, restored));
    EXPECT_EQ(restored.simThreads, 4u);
    EXPECT_EQ(toJson(restored).dump(), older_json.dump());
}

TEST(Runner, DiskCacheHitsOnSecondInvocation)
{
    const std::string dir =
        ::testing::TempDir() + "/latte_runner_cache_test";
    std::filesystem::remove_all(dir);

    const auto requests = smallGrid();
    RunnerOptions options;
    options.threads = 2;
    options.progress = false;
    options.cacheDir = dir;

    ExperimentRunner first(options);
    const auto cold = first.runAll(requests);
    EXPECT_EQ(first.stats().executed, requests.size());
    EXPECT_EQ(first.stats().cacheHits, 0u);

    ExperimentRunner second(options);
    const auto warm = second.runAll(requests);
    EXPECT_EQ(second.stats().executed, 0u);
    EXPECT_EQ(second.stats().cacheHits, requests.size());

    EXPECT_EQ(dumpAll(cold), dumpAll(warm));
    std::filesystem::remove_all(dir);
}

TEST(Runner, ConcurrentRunnersShareOneCacheDirSafely)
{
    // Two sweeps over the same grid, racing on one --cache-dir — the
    // regime latted and direct runs share. Entries are published with
    // per-process/per-thread tmp names + rename, so concurrent stores
    // of the same key must never corrupt an entry or fail a run.
    const std::string dir =
        ::testing::TempDir() + "/latte_runner_shared_cache_test";
    std::filesystem::remove_all(dir);

    const auto requests = smallGrid();
    RunnerOptions options;
    options.threads = 2;
    options.progress = false;
    options.cacheDir = dir;

    std::vector<std::vector<RunOutcome>> results(4);
    {
        std::vector<std::thread> racers;
        for (auto &slot : results)
            racers.emplace_back([&, out = &slot] {
                ExperimentRunner runner(options);
                *out = runner.runAll(requests);
            });
        for (std::thread &racer : racers)
            racer.join();
    }
    for (const auto &outcomes : results) {
        ASSERT_EQ(outcomes.size(), requests.size());
        EXPECT_EQ(dumpAll(outcomes), dumpAll(results.front()));
        for (const RunOutcome &outcome : outcomes)
            EXPECT_TRUE(outcome.ok()) << to_string(outcome.error);
    }

    // Whatever interleaving won, the surviving entries are sound: a
    // fresh runner is served entirely from the cache, bit-identically.
    ExperimentRunner warm(options);
    const auto cached = warm.runAll(requests);
    EXPECT_EQ(warm.stats().executed, 0u);
    EXPECT_EQ(warm.stats().cacheHits, requests.size());
    EXPECT_EQ(dumpAll(cached), dumpAll(results.front()));
    std::filesystem::remove_all(dir);
}

TEST(Runner, ExecutionShortcutsAreBitIdentical)
{
    // The verify-round-trip payloads, the tracer, the metric registry
    // and the profiler are execution shortcuts or observers: none of
    // them may perturb a single simulated bit. Golden check: full
    // result JSON (cycles, energy, per-kernel snapshots, the whole stat
    // dump) is byte-identical with each toggled.
    const char *names[] = {"KM", "SS"};
    for (const char *name : names) {
        const Workload *workload = findWorkload(name);
        ASSERT_NE(workload, nullptr);
        for (const PolicyKind kind :
             {PolicyKind::LatteCc, PolicyKind::StaticSc}) {
            RunRequest request;
            request.workload = workload;
            request.policy = kind;
            request.options = tinyOptions();
            const std::string golden = toJson(run(request).value()).dump();

            RunRequest verified = request;
            verified.options.tuning.verifyRoundTrip = true;
            EXPECT_EQ(toJson(run(verified).value()).dump(), golden)
                << name << "/" << policyName(kind) << " verify on";

            RunRequest traced = request;
            Tracer tracer;
            traced.tracer = &tracer;
            EXPECT_EQ(toJson(run(traced).value()).dump(), golden)
                << name << "/" << policyName(kind) << " tracing on";

            RunRequest metered = request;
            metrics::MetricRegistry registry;
            metered.metrics = &registry;
            EXPECT_EQ(toJson(run(metered).value()).dump(), golden)
                << name << "/" << policyName(kind) << " metrics on";
            EXPECT_FALSE(registry.rows().empty());

            metrics::setProfilerEnabled(true);
            const std::string profiled = toJson(run(request).value()).dump();
            metrics::setProfilerEnabled(false);
            EXPECT_EQ(profiled, golden)
                << name << "/" << policyName(kind) << " profiler on";
        }
    }
}

TEST(Runner, RunKeyIgnoresSimThreads)
{
    // --sim-threads is accepted for compatibility and ignored, so a
    // cached cell is valid whichever value was given and the
    // fingerprint must not split on it.
    const Workload *workload = findWorkload("KM");
    ASSERT_NE(workload, nullptr);

    RunRequest request;
    request.workload = workload;
    request.policy = PolicyKind::LatteCc;
    request.options = tinyOptions();
    const RunKey base = RunKey::of(request);

    for (const char *threads : {"1", "2", "4", "auto"}) {
        RunRequest threaded = request;
        threaded.options.simThreads = threads;
        EXPECT_EQ(RunKey::of(threaded), base) << threads;
        EXPECT_EQ(RunKey::of(threaded).fingerprint(),
                  base.fingerprint())
            << threads;
    }

    // A fresh run records 1 in the outcome envelope whatever was given,
    // and an unresolvable spelling is a structured failure, not an exit.
    RunRequest threaded = request;
    threaded.options.simThreads = "2";
    EXPECT_EQ(run(threaded).simThreads, 1u);
    RunRequest bad = request;
    bad.options.simThreads = "zero";
    const RunOutcome outcome = run(bad);
    EXPECT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error.code, RunErrorCode::InvalidConfig);
}

TEST(Runner, ObservationalOutputsBypassDiskCache)
{
    // Metrics and the profiler must force a real simulation just like
    // the tracer: a disk hit would return the result without producing
    // any samples or profile time.
    const std::string dir =
        ::testing::TempDir() + "/latte_runner_metrics_bypass_test";
    std::filesystem::remove_all(dir);

    const Workload *workload = findWorkload("KM");
    ASSERT_NE(workload, nullptr);
    RunRequest request;
    request.workload = workload;
    request.policy = PolicyKind::Baseline;
    request.options = tinyOptions();

    RunnerOptions options;
    options.threads = 1;
    options.progress = false;
    options.cacheDir = dir;

    // Warm the cache.
    {
        ExperimentRunner runner(options);
        runner.runAll({request});
        EXPECT_EQ(runner.stats().executed, 1u);
    }
    // A plain re-run is served from disk...
    {
        ExperimentRunner runner(options);
        runner.runAll({request});
        EXPECT_EQ(runner.stats().cacheHits, 1u);
        EXPECT_EQ(runner.stats().executed, 0u);
    }
    // ...but a metrics-attached run simulates and produces samples.
    {
        metrics::MetricRegistry registry;
        RunRequest metered = request;
        metered.metrics = &registry;
        ExperimentRunner runner(options);
        runner.runAll({metered});
        EXPECT_EQ(runner.stats().executed, 1u);
        EXPECT_EQ(runner.stats().cacheHits, 0u);
        EXPECT_FALSE(registry.rows().empty());
    }
    // ...and so does one with the process-wide profiler enabled.
    {
        metrics::setProfilerEnabled(true);
        ExperimentRunner runner(options);
        runner.runAll({request});
        metrics::setProfilerEnabled(false);
        EXPECT_EQ(runner.stats().executed, 1u);
        EXPECT_EQ(runner.stats().cacheHits, 0u);
    }
    std::filesystem::remove_all(dir);
}

TEST(Runner, RunKeySeparatesDriverOptions)
{
    const Workload *workload = findWorkload("KM");
    ASSERT_NE(workload, nullptr);

    RunRequest a;
    a.workload = workload;
    a.policy = PolicyKind::StaticBdi;
    a.options = tinyOptions();

    // The old string key (abbr + policy name) aliased these three.
    RunRequest b = a;
    b.options.tuning.chargeDecompression = false;
    RunRequest c = a;
    c.options.cfg.l1.sizeBytes = 64 * 1024;

    const RunKey ka = RunKey::of(a);
    const RunKey kb = RunKey::of(b);
    const RunKey kc = RunKey::of(c);
    EXPECT_NE(ka, kb);
    EXPECT_NE(ka, kc);
    EXPECT_NE(kb, kc);
    EXPECT_NE(ka.fingerprint(), kb.fingerprint());

    // Seed participates in the key too.
    RunRequest d = a;
    d.seed = 42;
    EXPECT_NE(RunKey::of(d), ka);

    // Identical requests agree.
    const RunRequest a_copy = a;
    EXPECT_EQ(RunKey::of(a), RunKey::of(a_copy));
}

TEST(Runner, EverySpecKeyReachesTheRunKey)
{
    // A key the fingerprint ignored would let a result cache serve one
    // configuration's cells for another. The table must name every
    // key, each with a valid value that differs from the default; the
    // two execution-only keys must leave the key alone.
    const std::map<std::string, Json> values = {
        {"max_instructions_per_kernel", Json(12345)},
        {"cfg.num_sms", Json(4)},
        {"cfg.max_warps_per_sm", Json(24)},
        {"cfg.max_blocks_per_sm", Json(3)},
        {"cfg.schedulers_per_sm", Json(1)},
        {"cfg.l1_size_bytes", Json(32768)},
        {"cfg.l1_line_bytes", Json(64)},
        {"cfg.l1_assoc", Json(8)},
        {"cfg.l1_hit_latency", Json(31)},
        {"cfg.l1_tag_factor", Json(2)},
        {"cfg.l1_sub_block_bytes", Json(16)},
        {"cfg.l1_mshr_entries", Json(17)},
        {"cfg.l2_size_bytes", Json(1572864)},
        {"cfg.l2_assoc", Json(16)},
        {"cfg.l2_banks", Json(6)},
        {"cfg.l2_min_latency", Json(150)},
        {"cfg.l2_bank_service_cycles", Json(3)},
        {"cfg.l2_miss_penalty_cycles", Json(77)},
        {"cfg.dram_min_latency", Json(333)},
        {"cfg.dram_bytes_per_cycle", Json(48.5)},
        {"cfg.noc_bytes_per_cycle", Json(100.5)},
        {"cfg.latte.ep_accesses", Json(512)},
        {"cfg.latte.period_eps", Json(20)},
        {"cfg.latte.learning_eps", Json(2)},
        {"cfg.latte.dedicated_sets_per_mode", Json(2)},
        {"cfg.latte.vft_entries", Json(2048)},
        {"cfg.sched_policy", Json("lrr")},
        {"cfg.l1_repl", Json("srrip")},
        {"l2.compress", Json("static:bdi")},
        {"link.compress", Json("bdi")},
        {"compress_backend", Json("scalar")},
        {"sim_threads", Json("2")},
    };
    std::vector<std::string> table_keys;
    for (const auto &[key, value] : values)
        table_keys.push_back(key);
    ASSERT_EQ(table_keys, sweepOptionKeys());

    RunRequest base;
    base.workload = findWorkload("KM");
    ASSERT_NE(base.workload, nullptr);
    base.policy = PolicyKind::LatteCc;
    const RunKey base_key = RunKey::of(base);
    for (const auto &[key, value] : values) {
        RunRequest request = base;
        std::string error;
        ASSERT_TRUE(applyOption(request.options, key, value, &error))
            << key << ": " << error;
        const bool execution_only =
            key == "compress_backend" || key == "sim_threads";
        EXPECT_EQ(RunKey::of(request) == base_key, execution_only) << key;
    }
}

TEST(Runner, EnumSpecKeysNameThemselvesOnUnknownValues)
{
    for (const char *key : {"cfg.sched_policy", "cfg.l1_repl"}) {
        DriverOptions options;
        std::string error;
        EXPECT_FALSE(applyOption(options, key, Json("plru-ish"), &error));
        EXPECT_NE(error.find(key), std::string::npos) << error;
        EXPECT_NE(error.find("plru-ish"), std::string::npos) << error;
    }
}

TEST(Runner, KindAndEquivalentFactoryAgree)
{
    // A PolicyKind request and a custom factory constructing the same
    // policy must simulate identically — run(RunRequest) is the single
    // entry point for both shapes.
    const Workload *workload = findWorkload("PRK");
    ASSERT_NE(workload, nullptr);
    const DriverOptions options = tinyOptions();

    RunRequest by_kind;
    by_kind.workload = workload;
    by_kind.policy = PolicyKind::StaticSc;
    by_kind.options = options;
    const WorkloadRunResult via_kind = run(by_kind).value();

    RunRequest by_factory;
    by_factory.workload = workload;
    by_factory.policy = [](const GpuConfig &cfg) {
        return std::make_unique<StaticPolicy>(cfg, CompressorId::Sc);
    };
    by_factory.label = via_kind.policyLabel;
    by_factory.options = options;
    const WorkloadRunResult via_factory = run(by_factory).value();

    // The result's policyKind tag differs by construction shape; the
    // simulation itself must not.
    EXPECT_EQ(via_kind.cycles, via_factory.cycles);
    EXPECT_EQ(via_kind.instructions, via_factory.instructions);
    EXPECT_EQ(via_kind.hits, via_factory.hits);
    EXPECT_EQ(via_kind.misses, via_factory.misses);
    EXPECT_EQ(via_kind.modeAccesses, via_factory.modeAccesses);
    EXPECT_EQ(via_kind.policyLabel, via_factory.policyLabel);
}

TEST(Runner, PolicyCatalogueRoundTrip)
{
    const PolicyKind kinds[] = {
        PolicyKind::Baseline,        PolicyKind::StaticBdi,
        PolicyKind::StaticSc,        PolicyKind::StaticBpc,
        PolicyKind::AdaptiveHitCount, PolicyKind::AdaptiveCmp,
        PolicyKind::LatteCc,         PolicyKind::LatteCcBdiBpc,
        PolicyKind::KernelOpt,       PolicyKind::L2StaticBdi,
        PolicyKind::L2Latte,         PolicyKind::LatteCcL1L2,
    };
    const GpuConfig cfg;
    for (const PolicyKind kind : kinds) {
        const char *name = policyName(kind);
        ASSERT_NE(name, nullptr);
        const PolicyKind *back = policyKindFromName(name);
        ASSERT_NE(back, nullptr) << name;
        EXPECT_EQ(*back, kind);
        if (kind != PolicyKind::KernelOpt) {
            EXPECT_NE(makePolicy(kind, cfg), nullptr) << name;
        }
    }
    EXPECT_EQ(policyKindFromName("no-such-policy"), nullptr);
}

TEST(Runner, SeedMixingChangesResults)
{
    const Workload *workload = findWorkload("KM");
    ASSERT_NE(workload, nullptr);

    RunRequest request;
    request.workload = workload;
    request.policy = PolicyKind::Baseline;
    request.options = tinyOptions();

    const WorkloadRunResult canonical = run(request).value();
    request.seed = 1234;
    const WorkloadRunResult reseeded = run(request).value();

    EXPECT_EQ(reseeded.seed, 1234u);
    // A different seed perturbs the stochastic access streams.
    EXPECT_NE(toJson(canonical).dump(), toJson(reseeded).dump());

    // And the same seed reproduces bit-identically.
    const WorkloadRunResult reseeded_again = run(request).value();
    EXPECT_EQ(toJson(reseeded).dump(), toJson(reseeded_again).dump());
}

TEST(Runner, SweepArgParsing)
{
    const char *raw[] = {"prog",        "-j",     "4",    "positional",
                         "--cache-dir", "/tmp/x", "--no-progress",
                         "--json",      "out.json",
                         "--metrics-out", "m.jsonl",
                         "--metrics-interval", "5000",
                         "--profile",   "--bench-out", "bench.json",
                         "--resume",    "journal.jsonl",
                         "--cell-timeout", "2.5",
                         "--cell-cycle-budget", "1000000",
                         "--retries",   "3",
                         "--retry-backoff-ms", "50"};
    std::vector<char *> argv;
    for (const char *arg : raw)
        argv.push_back(const_cast<char *>(arg));
    int argc = static_cast<int>(argv.size());

    const SweepCliOptions cli = parseSweepArgs(argc, argv.data());
    EXPECT_EQ(cli.jobs, 4u);
    EXPECT_EQ(cli.cacheDir, "/tmp/x");
    EXPECT_EQ(cli.jsonPath, "out.json");
    EXPECT_EQ(cli.metricsOut, "m.jsonl");
    EXPECT_EQ(cli.metricsInterval, 5000u);
    EXPECT_TRUE(cli.profile);
    EXPECT_EQ(cli.benchOut, "bench.json");
    EXPECT_FALSE(cli.progress);
    EXPECT_EQ(cli.resumePath, "journal.jsonl");
    EXPECT_EQ(cli.cellTimeoutMs, 2500u);
    EXPECT_EQ(cli.cellCycleBudget, 1'000'000u);
    EXPECT_EQ(cli.retries, 3u);
    EXPECT_EQ(cli.retryBackoffMs, 50u);

    // Consumed flags are compacted away; positionals survive.
    ASSERT_EQ(argc, 2);
    EXPECT_STREQ(argv[0], "prog");
    EXPECT_STREQ(argv[1], "positional");
}

TEST(RunnerDeath, SweepArgParsingRejectsMalformedNumbers)
{
    // A sign on an unsigned value, trailing text and values beyond the
    // destination's range exit with the usage status, naming the flag.
    struct Case { const char *arg, *flag, *value; };
    const Case cases[] = {
        {"--jobs", "--jobs", "abc"},
        {"-j", "--jobs", "-3"},
        {"-j", "--jobs", "4294967297"},
        {"--retries", "--retries", "-1"},
        {"--retries", "--retries", "4294967296"},
        {"--cell-cycle-budget", "--cell-cycle-budget", "12x"},
        {"--retry-backoff-ms", "--retry-backoff-ms",
         "99999999999999999999"},
        {"--metrics-interval", "--metrics-interval", "0"},
        {"--cell-timeout", "--cell-timeout", "-1"},
        {"--cell-timeout", "--cell-timeout", "nan"},
        {"--cell-timeout", "--cell-timeout", "1e300"},
    };
    for (const Case &c : cases) {
        const char *raw[] = {"prog", c.arg, c.value, nullptr};
        int argc = 3;
        EXPECT_EXIT(parseSweepArgs(argc, const_cast<char **>(raw)),
                    testing::ExitedWithCode(1),
                    std::string(c.flag) + ": bad value")
            << c.arg << " " << c.value;
    }

    // The edges of each range still parse.
    const char *raw[] = {"prog", "--retries", "4294967295", "-j0",
                         nullptr};
    int argc = 4;
    const SweepCliOptions cli =
        parseSweepArgs(argc, const_cast<char **>(raw));
    EXPECT_EQ(cli.retries, 4294967295u);
    EXPECT_EQ(cli.jobs, 0u);
}

TEST(Runner, SweepDedupesAndRunsPending)
{
    const Workload *workload = findWorkload("PRK");
    ASSERT_NE(workload, nullptr);

    SweepCliOptions cli;
    cli.jobs = 2;
    cli.progress = false;
    Sweep sweep(cli, tinyOptions());

    sweep.add(*workload, PolicyKind::Baseline);
    sweep.add(*workload, PolicyKind::Baseline); // duplicate, one cell
    sweep.add(*workload, PolicyKind::StaticBdi);

    const auto &base = sweep.get(*workload, PolicyKind::Baseline);
    const auto &bdi = sweep.get(*workload, PolicyKind::StaticBdi);
    EXPECT_GT(base.cycles, 0u);
    EXPECT_GT(bdi.cycles, 0u);
    EXPECT_EQ(sweep.outcomes().size(), 2u);

    // get() on an undeclared cell simulates it on demand.
    const auto &sc = sweep.get(*workload, PolicyKind::StaticSc);
    EXPECT_GT(sc.cycles, 0u);
    EXPECT_EQ(sweep.outcomes().size(), 3u);
}

TEST(Runner, SweepMetricsExportIsOneExposition)
{
    const Workload *workload = findWorkload("KM");
    ASSERT_NE(workload, nullptr);
    const std::string path =
        ::testing::TempDir() + "/latte_sweep_metrics.prom";
    std::filesystem::remove(path);

    // Two cells that differ only in the L1 hit latency: the same
    // workload, policy and seed, so only the config label parts them.
    RunRequest fast;
    fast.workload = workload;
    fast.policy = PolicyKind::LatteCc;
    fast.options = tinyOptions();
    RunRequest slow = fast;
    slow.options.cfg.l1.hitLatency += 4;
    {
        SweepCliOptions cli;
        cli.jobs = 2;
        cli.progress = false;
        cli.metricsOut = path;
        Sweep sweep(cli, tinyOptions());
        sweep.add(fast);
        sweep.add(slow);
        sweep.run();
        ASSERT_EQ(sweep.outcomes().size(), 2u);
    } // the destructor writes --metrics-out

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open()) << path;
    std::map<std::string, int> declared;
    std::vector<std::string> cycles;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("# TYPE ", 0) == 0)
            ++declared[line.substr(7, line.find(' ', 7) - 7)];
        else if (line.rfind("latte_sample_cycle{", 0) == 0)
            cycles.push_back(line);
    }
    ASSERT_GT(declared.size(), 10u);
    for (const auto &[family, count] : declared)
        EXPECT_EQ(count, 1) << family << " declared " << count << " times";

    ASSERT_EQ(cycles.size(), 2u);
    const std::string fast_config = RunKey::of(fast).configHex();
    const std::string slow_config = RunKey::of(slow).configHex();
    EXPECT_NE(fast_config, slow_config);
    EXPECT_NE(cycles[0].find("config=\"" + fast_config + "\""),
              std::string::npos)
        << cycles[0];
    EXPECT_NE(cycles[1].find("config=\"" + slow_config + "\""),
              std::string::npos)
        << cycles[1];
}

TEST(Runner, SweepRunsCustomFactoryCells)
{
    const Workload *workload = findWorkload("KM");
    ASSERT_NE(workload, nullptr);

    SweepCliOptions cli;
    cli.jobs = 2;
    cli.progress = false;
    Sweep sweep(cli, tinyOptions());

    auto fpc_request = [&]() {
        RunRequest request;
        request.workload = workload;
        request.policy = [](const GpuConfig &cfg) {
            return std::make_unique<StaticPolicy>(cfg, CompressorId::Fpc);
        };
        request.label = "Static-FPC";
        request.options = tinyOptions();
        return request;
    };

    sweep.add(fpc_request());
    // A second request with the same label dedupes onto the same cell
    // even though the std::function object differs.
    const auto &first = sweep.get(fpc_request());
    EXPECT_EQ(sweep.outcomes().size(), 1u);
    EXPECT_EQ(first.policyLabel, "Static-FPC");
    EXPECT_GT(first.cycles, 0u);
}

TEST(Runner, JsonParsesPrimitives)
{
    std::string error;
    const Json parsed = Json::parse(
        R"({"a": [1, 2.5, true, null, "s\n"], "b": 18446744073709551615})",
        &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(parsed.at("a").asArray().size(), 5u);
    EXPECT_EQ(parsed.at("a").asArray()[0].asUint(), 1u);
    EXPECT_DOUBLE_EQ(parsed.at("a").asArray()[1].asDouble(), 2.5);
    EXPECT_TRUE(parsed.at("a").asArray()[2].asBool());
    EXPECT_EQ(parsed.at("a").asArray()[3].type(), Json::Type::Null);
    EXPECT_EQ(parsed.at("a").asArray()[4].asString(), "s\n");
    EXPECT_EQ(parsed.at("b").asUint(), 18446744073709551615ull);

    Json::parse("{broken", &error);
    EXPECT_FALSE(error.empty());

    // A number a double cannot hold fails, naming the literal: read as
    // +-inf it would dump as a bare `inf`, which is not JSON.
    const std::pair<const char *, const char *> overflows[] = {
        {"1e999", "1e999"},
        {"-3e710", "-3e710"},
        {R"({"id":1e999})", "1e999"},
        {"[0, 1.7976931348623159e308]", "1.7976931348623159e308"},
    };
    for (const auto &[text, literal] : overflows) {
        error.clear();
        EXPECT_EQ(Json::parse(text, &error).type(), Json::Type::Null)
            << text;
        EXPECT_EQ(error, std::string("number out of range '") + literal +
                             "'")
            << text;
    }

    // The largest finite double parses; an underflow reads as 0.
    error.clear();
    EXPECT_EQ(Json::parse("1.7976931348623157e308", &error).asDouble(),
              1.7976931348623157e308)
        << error;
    EXPECT_EQ(Json::parse("1e-999", &error).asDouble(), 0.0) << error;
    EXPECT_TRUE(error.empty()) << error;
}

TEST(Runner, JsonNestingIsCapped)
{
    // Far past the cap: a clean error, not a stack overflow.
    std::string error;
    const std::string deep =
        std::string(100'000, '[') + std::string(100'000, ']');
    EXPECT_EQ(Json::parse(deep, &error).type(), Json::Type::Null);
    EXPECT_NE(error.find("nesting deeper than"), std::string::npos)
        << error;

    // Exactly at the cap, mixing arrays and objects, parses.
    std::string at_cap;
    for (int level = 0; level < Json::kMaxDepth; ++level)
        at_cap += level % 2 ? "[" : "{\"k\":";
    for (int level = Json::kMaxDepth - 1; level >= 0; --level)
        at_cap += level % 2 ? "]" : "}";
    error.clear();
    const Json parsed = Json::parse(at_cap, &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(parsed.type(), Json::Type::Object);

    // One level more fails.
    Json::parse("[" + at_cap + "]", &error);
    EXPECT_FALSE(error.empty());
}

} // namespace
