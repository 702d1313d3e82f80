/**
 * @file
 * Tests for the JSON field lists (runner/json_fields.hh): the result,
 * outcome, spec and job documents are pinned byte for byte and must
 * round-trip, and malformed persisted input -- cache entries, --resume
 * journal lines, latted's jobs.jsonl, wire requests -- is rejected
 * with a path-named error instead of aborting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "compress/backend.hh"
#include "core/driver.hh"
#include "runner/json.hh"
#include "runner/json_fields.hh"
#include "runner/resilience.hh"
#include "runner/result_cache.hh"
#include "runner/sweep_spec.hh"
#include "service/dispatcher.hh"
#include "service/sweep_service.hh"
#include "workloads/zoo.hh"

using namespace latte;
using runner::Json;

namespace
{

/**
 * Every optional branch of a result body: below-L1 counters and
 * energies, one trace point with the L2 and one without, best modes
 * and stats.
 */
WorkloadRunResult
fullResult()
{
    WorkloadRunResult r;
    r.workload = "KM";
    r.policy = PolicyKind::LatteCcL1L2;
    r.policyLabel = "LATTE-CC-L1L2";
    r.seed = 7;
    r.cycles = 123456;
    r.instructions = 654321;
    r.hits = 1000;
    r.misses = 250;
    r.energy.coreDynamicMj = 1.5;
    r.energy.l1Mj = 0.1;
    r.energy.l2Mj = 0.25;
    r.energy.nocMj = 1e-9;
    r.energy.dramMj = 3.0;
    r.energy.compressionMj = 0.125;
    r.energy.l2CompressionMj = 0.0625;
    r.energy.linkCompressionMj = 2.0 / 3.0;
    r.energy.staticMj = 4.75;

    KernelSnapshot k;
    k.name = "k\"0\"";
    k.cycles = 100;
    k.instructions = 200;
    k.hits = 30;
    k.misses = 4;
    k.usage.cycles = 100;
    k.usage.instructions = 200;
    k.usage.l1Accesses = 34;
    k.usage.l2Accesses = 4;
    k.usage.nocBytes = 512;
    k.usage.dramBytes = 256;
    k.usage.bdiCompressions = 5;
    k.usage.scCompressions = 6;
    k.usage.bpcCompressions = 7;
    k.usage.bdiDecompressions = 8;
    k.usage.scDecompressions = 9;
    k.usage.bpcDecompressions = 10;
    k.usage.l2BdiCompressions = 11;
    k.usage.l2BpcCompressions = 12;
    k.usage.l2BdiDecompressions = 13;
    k.usage.l2BpcDecompressions = 14;
    k.usage.linkTransfers = 18446744073709551615ull;
    k.modeAccesses = {1, 2, 3, 4, 5, 6};
    r.kernels.push_back(k);
    k.name = "k1";
    k.usage = UsageCounts{};
    r.kernels.push_back(k);
    r.kernelBestModes = {CompressorId::Bdi, CompressorId::None};

    PolicyTracePoint l1_only;
    l1_only.cycle = 256;
    l1_only.latencyTolerance = 12.5;
    l1_only.mode = CompressorId::Sc;
    l1_only.effectiveCapacityBytes = 49152;
    l1_only.decompQueueDepth = 2;
    l1_only.samplerHits = {1, 0, 0, 0, 0, 9};
    l1_only.samplerMisses = {0, 1, 0, 0, 0, 0};
    r.trace.push_back(l1_only);
    PolicyTracePoint with_l2 = l1_only;
    with_l2.cycle = 512;
    with_l2.hasL2 = true;
    with_l2.l2Mode = CompressorId::Bpc;
    with_l2.l2Tolerance = 0.1;
    r.trace.push_back(with_l2);

    r.modeAccesses = {10, 0, 0, 0, 20, 30};
    r.stats = {{"gpu.cycles", 123456.0}, {"sm0.l1.missRate", 0.2}};
    return r;
}

/** A failed cell after two retries, restored from an older run. */
RunOutcome
failedOutcome()
{
    RunError error;
    error.code = RunErrorCode::DramTimeout;
    error.message = "injected\n\x01 fault";
    error.workload = "BFS";
    error.policyLabel = "LATTE-CC";
    error.seed = 3;
    error.cycle = 4242;
    RunOutcome outcome = RunOutcome::failure(error);
    outcome.attempts = 3;
    error.code = RunErrorCode::CycleBudgetExceeded;
    error.cycle = 99;
    outcome.retryHistory = {error, error};
    outcome.simThreads = 4;
    return outcome;
}

runner::SweepSpec
fullSpec()
{
    runner::SweepSpec spec;
    spec.name = "pinned";
    spec.workloads = {"KM", "BFS"};
    spec.policies = {"Baseline", "LATTE-CC"};
    spec.seeds = {0, 7};
    spec.options["cfg.num_sms"] = runner::Json(std::uint64_t{4});
    spec.options["cfg.dram_bytes_per_cycle"] = runner::Json(12.5);
    spec.options["cfg.sched_policy"] = runner::Json("lrr");
    spec.axes.push_back({"cfg.l1_size_bytes",
                         {runner::Json(std::uint64_t{16384}),
                          runner::Json(std::uint64_t{32768})}});
    spec.axes.push_back(
        {"l2.compress", {runner::Json("off"), runner::Json("latte")}});
    spec.retries = 2;
    spec.retryBackoffMs = 50;
    spec.cellTimeoutMs = 60000;
    spec.cellCycleBudget = 1000000;
    return spec;
}

service::JobInfo
fullJob()
{
    service::JobInfo info;
    info.id = 12;
    info.client = "ci";
    info.priority = -3;
    info.state = service::JobState::Done;
    info.spec = fullSpec();
    info.cellsTotal = 16;
    info.cellsDone = 16;
    info.cellsFailed = 1;
    info.cellsCached = 2;
    info.cellsExecuted = 14;
    info.resultPath = "state/job-12.result.json";
    return info;
}

// Captured from the serializers these field lists replaced.
const char *const kResultDoc =
    R"({"cycles":123456,"energy":{"compressionMj":0.125,"coreDynamicMj")"
    R"(:1.5,"dramMj":3.0,"l1Mj":0.10000000000000001,"l2CompressionMj":0)"
    R"(.0625,"l2Mj":0.25,"linkCompressionMj":0.66666666666666663,"nocMj)"
    R"(":1.0000000000000001e-09,"staticMj":4.75},"hits":1000,"instructi)"
    R"(ons":654321,"kernelBestModes":["BDI","None"],"kernels":[{"cycles)"
    R"(":100,"hits":30,"instructions":200,"misses":4,"modeAccesses":[1,)"
    R"(2,3,4,5,6],"name":"k\"0\"","usage":{"bdiCompressions":5,"bdiDeco)"
    R"(mpressions":8,"bpcCompressions":7,"bpcDecompressions":10,"cycles)"
    R"(":100,"dramBytes":256,"instructions":200,"l1Accesses":34,"l2Acce)"
    R"(sses":4,"l2BdiCompressions":11,"l2BdiDecompressions":13,"l2BpcCo)"
    R"(mpressions":12,"l2BpcDecompressions":14,"linkTransfers":18446744)"
    R"(073709551615,"nocBytes":512,"scCompressions":6,"scDecompressions)"
    R"(":9}},{"cycles":100,"hits":30,"instructions":200,"misses":4,"mod)"
    R"(eAccesses":[1,2,3,4,5,6],"name":"k1","usage":{"bdiCompressions":)"
    R"(0,"bdiDecompressions":0,"bpcCompressions":0,"bpcDecompressions":)"
    R"(0,"cycles":0,"dramBytes":0,"instructions":0,"l1Accesses":0,"l2Ac)"
    R"(cesses":0,"nocBytes":0,"scCompressions":0,"scDecompressions":0}})"
    R"(],"misses":250,"modeAccesses":[10,0,0,0,20,30],"policyKind":"LAT)"
    R"(TE-CC-L1L2","policyLabel":"LATTE-CC-L1L2","schema":3,"seed":7,"s)"
    R"(tats":{"gpu.cycles":123456.0,"sm0.l1.missRate":0.200000000000000)"
    R"(01},"trace":[{"capacityBytes":49152,"cycle":256,"decompQueueDept)"
    R"(h":2,"mode":"SC","samplerHits":[1,0,0,0,0,9],"samplerMisses":[0,)"
    R"(1,0,0,0,0],"tolerance":12.5},{"capacityBytes":49152,"cycle":512,)"
    R"("decompQueueDepth":2,"l2Mode":"BPC","l2Tolerance":0.100000000000)"
    R"(00001,"mode":"SC","samplerHits":[1,0,0,0,0,9],"samplerMisses":[0)"
    R"(,1,0,0,0,0],"tolerance":12.5}],"workload":"KM"})";
const char *const kFailedOutcomeDoc =
    R"({"attempts":3,"cycles":0,"energy":{"compressionMj":0.0,"coreDyna)"
    R"(micMj":0.0,"dramMj":0.0,"l1Mj":0.0,"l2Mj":0.0,"nocMj":0.0,"stati)"
    R"(cMj":0.0},"error":{"code":"dram_timeout","cycle":4242,"message":)"
    R"("injected\n\u0001 fault","policyLabel":"LATTE-CC","seed":3,"work)"
    R"(load":"BFS"},"hits":0,"instructions":0,"kernelBestModes":[],"ker)"
    R"(nels":[],"misses":0,"modeAccesses":[0,0,0,0,0,0],"policyKind":"B)"
    R"(aseline","policyLabel":"LATTE-CC","retryHistory":[{"code":"cycle)"
    R"(_budget_exceeded","cycle":99,"message":"injected\n\u0001 fault",)"
    R"("policyLabel":"LATTE-CC","seed":3,"workload":"BFS"},{"code":"cyc)"
    R"(le_budget_exceeded","cycle":99,"message":"injected\n\u0001 fault)"
    R"(","policyLabel":"LATTE-CC","seed":3,"workload":"BFS"}],"schema":)"
    R"(3,"seed":3,"simThreads":4,"stats":{},"status":"failed","trace":[)"
    R"(],"workload":"BFS"})";
const char *const kSpecDoc =
    R"({"axes":[{"key":"cfg.l1_size_bytes","values":[16384,32768]},{"ke)"
    R"(y":"l2.compress","values":["off","latte"]}],"cell_cycle_budget":)"
    R"(1000000,"cell_timeout_ms":60000,"name":"pinned","options":{"cfg.)"
    R"(dram_bytes_per_cycle":12.5,"cfg.num_sms":4,"cfg.sched_policy":"l)"
    R"(rr"},"policies":["Baseline","LATTE-CC"],"retries":2,"retry_backo)"
    R"(ff_ms":50,"seeds":[0,7],"workloads":["KM","BFS"]})";
const char *const kJobDoc =
    R"({"cells_cached":2,"cells_done":16,"cells_executed":14,"cells_fai)"
    R"(led":1,"cells_total":16,"client":"ci","error":"","id":12,"priori)"
    R"(ty":-3.0,"result_path":"state/job-12.result.json","served_from_c)"
    R"(ache":false,"spec":{"axes":[{"key":"cfg.l1_size_bytes","values":)"
    R"([16384,32768]},{"key":"l2.compress","values":["off","latte"]}],")"
    R"(cell_cycle_budget":1000000,"cell_timeout_ms":60000,"name":"pinne)"
    R"(d","options":{"cfg.dram_bytes_per_cycle":12.5,"cfg.num_sms":4,"c)"
    R"(fg.sched_policy":"lrr"},"policies":["Baseline","LATTE-CC"],"retr)"
    R"(ies":2,"retry_backoff_ms":50,"seeds":[0,7],"workloads":["KM","BF)"
    R"(S"]},"state":"done"})";

/** @p json without the host-dependent compressBackend member. */
std::string
withoutBackend(const Json &json)
{
    Json::Object object = json.asObject();
    object.erase("compressBackend");
    return Json(std::move(object)).dump();
}

Json
parsed(const std::string &text)
{
    std::string error;
    Json json = Json::parse(text, &error);
    EXPECT_TRUE(error.empty()) << error << " in: " << text;
    return json;
}

std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "/" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::trunc);
    out << text;
}

/** Quiets the warnings every rejected input logs, for one test. */
class QuietLog
{
  public:
    QuietLog() : saved_(logLevel()) { setLogLevel(LogLevel::Error); }
    ~QuietLog() { setLogLevel(saved_); }
    QuietLog(const QuietLog &) = delete;
    QuietLog &operator=(const QuietLog &) = delete;

  private:
    LogLevel saved_;
};

TEST(Serialization, DocumentFormatsArePinned)
{
    const WorkloadRunResult result = fullResult();
    EXPECT_EQ(runner::toJson(result).dump(), kResultDoc);
    WorkloadRunResult restored;
    ASSERT_TRUE(runner::fromJson(parsed(kResultDoc), restored));
    EXPECT_EQ(runner::toJson(restored).dump(), kResultDoc);
    EXPECT_FALSE(restored.trace[0].hasL2);
    EXPECT_TRUE(restored.trace[1].hasL2);

    const RunOutcome failed = failedOutcome();
    const Json failed_json = runner::toJson(failed);
    EXPECT_EQ(withoutBackend(failed_json), kFailedOutcomeDoc);
    EXPECT_EQ(failed_json.at("compressBackend").asString(),
              activeCompressorBackend().name);
    RunOutcome restored_outcome;
    ASSERT_TRUE(runner::fromJson(parsed(kFailedOutcomeDoc),
                                 restored_outcome));
    EXPECT_EQ(restored_outcome.simThreads, 4u);
    EXPECT_FALSE(restored_outcome.result.has_value());
    EXPECT_EQ(withoutBackend(runner::toJson(restored_outcome)),
              kFailedOutcomeDoc);

    const runner::SweepSpec spec = fullSpec();
    EXPECT_EQ(spec.toJson().dump(), kSpecDoc);
    runner::SweepSpec restored_spec;
    std::string error;
    ASSERT_TRUE(runner::SweepSpec::fromJson(parsed(kSpecDoc),
                                            restored_spec, &error))
        << error;
    EXPECT_EQ(restored_spec.toJson().dump(), kSpecDoc);

    const service::JobInfo job = fullJob();
    EXPECT_EQ(job.toJson().dump(), kJobDoc);
    service::JobInfo restored_job;
    ASSERT_TRUE(runner::decodeJson(parsed(kJobDoc), restored_job, &error))
        << error;
    EXPECT_EQ(restored_job.priority, -3);
    EXPECT_EQ(restored_job.toJson().dump(), kJobDoc);
}

/** One step of a path into a document: an object key or an index. */
struct Step
{
    std::string key;
    std::size_t index = 0;
    bool isIndex = false;
};

using Path = std::vector<Step>;

std::string
pathText(const Path &path)
{
    std::string text;
    for (const Step &step : path) {
        if (step.isIndex)
            text += "[" + std::to_string(step.index) + "]";
        else
            text += (text.empty() ? "" : ".") + step.key;
    }
    return text;
}

/** Every leaf: a scalar, or an empty array or object. */
void
collectLeaves(const Json &json, Path &path, std::vector<Path> &out)
{
    if (json.type() == Json::Type::Object && !json.asObject().empty()) {
        for (const auto &[key, value] : json.asObject()) {
            path.push_back({key});
            collectLeaves(value, path, out);
            path.pop_back();
        }
    } else if (json.type() == Json::Type::Array &&
               !json.asArray().empty()) {
        for (std::size_t i = 0; i < json.asArray().size(); ++i) {
            path.push_back({"", i, true});
            collectLeaves(json.asArray()[i], path, out);
            path.pop_back();
        }
    } else {
        out.push_back(path);
    }
}

/** @p json with the leaf at @p path replaced, or erased if nullopt. */
Json
edited(const Json &json, const Path &path, std::size_t depth,
       const std::optional<Json> &leaf)
{
    const Step &step = path[depth];
    const bool last = depth + 1 == path.size();
    if (step.isIndex) {
        Json::Array array = json.asArray();
        if (!last)
            array[step.index] = edited(array[step.index], path, depth + 1,
                                       leaf);
        else if (leaf)
            array[step.index] = *leaf;
        else
            array.erase(array.begin() +
                        static_cast<std::ptrdiff_t>(step.index));
        return Json(std::move(array));
    }
    Json::Object object = json.asObject();
    if (!last)
        object[step.key] = edited(object[step.key], path, depth + 1, leaf);
    else if (leaf)
        object[step.key] = *leaf;
    else
        object.erase(step.key);
    return Json(std::move(object));
}

/** A real LATTE-CC-L1L2 cell, cut to a few kernels, points and stats. */
Json
realCellDocument()
{
    RunRequest request;
    request.workload = findWorkload("KM");
    request.policy = PolicyKind::LatteCcL1L2;
    request.options.cfg.numSms = 2;
    request.options.maxInstructionsPerKernel = 20'000;
    RunOutcome outcome = run(request);
    EXPECT_TRUE(outcome.ok()) << to_string(outcome.error);
    if (!outcome.ok() || outcome.result->stats.size() < 3)
        return Json();
    WorkloadRunResult &result = *outcome.result;
    result.kernels.resize(1);
    result.trace.resize(2);
    result.stats.erase(std::next(result.stats.begin(), 3),
                       result.stats.end());
    return runner::toJson(outcome);
}

TEST(Serialization, MalformedCellDocumentsAreRejectedNotFatal)
{
    QuietLog quiet;
    const Json doc = realCellDocument();
    ASSERT_EQ(doc.type(), Json::Type::Object);
    ASSERT_TRUE(doc.at("trace").asArray()[0].contains("l2Mode"));
    ASSERT_TRUE(doc.at("energy").contains("l2CompressionMj"));

    // Each mutation's expected verdict: only the fields a document may
    // omit survive deletion, only real-valued fields take -1, 2.5 and
    // 1e300, and only the ignored compressBackend takes any type.
    std::vector<std::string> omittable = {
        "simThreads", "compressBackend", "l2Mode", "l2Tolerance",
        "l2CompressionMj", "linkCompressionMj"};
    for (const UsageCounter &counter : kUsageCounters) {
        if (counter.belowL1)
            omittable.push_back(counter.name);
    }
    auto isOneOf = [](const std::string &key,
                      const std::vector<std::string> &keys) {
        return std::find(keys.begin(), keys.end(), key) != keys.end();
    };

    const std::string dir = freshDir("latte_serialization_mutations");
    const runner::ResultCache cache(dir + "/cache");
    const runner::RunKey key{"KM", "LATTE-CC-L1L2", 0, 1};
    const std::string cache_path =
        dir + "/cache/" + key.fingerprint() + ".json";
    std::filesystem::create_directories(dir + "/cache");
    const std::string journal_path = dir + "/journal.jsonl";

    std::vector<Path> leaves;
    Path scratch;
    collectLeaves(doc, scratch, leaves);
    ASSERT_GT(leaves.size(), 60u);

    std::size_t cases = 0;
    for (const Path &path : leaves) {
        const std::string &name =
            path.back().isIndex ? path[path.size() - 2].key
                                : path.back().key;
        const bool in_stats = path[0].key == "stats";
        const bool ignored = name == "compressBackend";
        const bool real = in_stats || path[0].key == "energy" ||
                          name == "tolerance" || name == "l2Tolerance";
        const Json &leaf = [&]() -> const Json & {
            const Json *at = &doc;
            for (const Step &step : path)
                at = step.isIndex ? &at->asArray()[step.index]
                                  : &at->at(step.key);
            return *at;
        }();

        std::vector<std::pair<std::optional<Json>, bool>> mutations;
        for (const Json &other :
             {Json(), Json(true), Json(std::uint64_t{7}), Json("x"),
              Json(Json::Array{}), Json(Json::Object{})}) {
            const bool same_type =
                other.type() == leaf.type() ||
                (other.isNumber() && leaf.isNumber());
            if (!same_type)
                mutations.push_back({other, ignored});
        }
        mutations.push_back(
            {std::nullopt, ignored || in_stats ||
                               (!path.back().isIndex &&
                                isOneOf(name, omittable))});
        if (leaf.isNumber()) {
            for (const double number : {-1.0, 2.5, 1e300})
                mutations.push_back({Json(number), real});
        }

        for (const auto &[replacement, accepted] : mutations) {
            const Json mutated = edited(doc, path, 0, replacement);
            const std::string what =
                pathText(path) + " -> " +
                (replacement ? replacement->dump() : "deleted");
            ++cases;

            RunOutcome outcome;
            std::string error;
            EXPECT_EQ(runner::fromJson(mutated, outcome, &error), accepted)
                << what << " (" << error << ")";
            // The error names the leaf, or the array it was erased from.
            const std::string named = pathText(
                replacement || !path.back().isIndex
                    ? path
                    : Path(path.begin(), path.end() - 1));
            if (!accepted) {
                EXPECT_EQ(error.compare(0, named.size(), named), 0)
                    << what << " (" << error << ")";
            }

            writeFile(cache_path, mutated.dump(2));
            EXPECT_EQ(cache.lookup(key).has_value(), accepted) << what;

            Json::Object line;
            line.emplace("fingerprint", "cell");
            line.emplace("outcome", mutated);
            writeFile(journal_path, Json(std::move(line)).dump() + "\n");
            const runner::SweepJournal journal(journal_path);
            EXPECT_EQ(journal.find("cell").has_value(), accepted) << what;
        }
    }
    EXPECT_GT(cases, 400u);
}

TEST(Serialization, JournalSkipsMistypedLines)
{
    QuietLog quiet;
    const std::string path =
        freshDir("latte_serialization_journal") + "/journal.jsonl";
    const std::string good =
        R"({"fingerprint":"ok","outcome":{"status":"failed",)"
        R"("error":{"code":"internal","message":"m","workload":"KM",)"
        R"("policyLabel":"p","seed":1,"cycle":0},"attempts":1,)"
        R"("retryHistory":[]}})";
    std::string text = good + "\n";
    // Each line below once aborted the sweep that replayed it.
    for (const char *bad : {
             R"({"fingerprint":7,"outcome":{"status":"failed",)"
             R"("error":{"code":"internal","message":"m","workload":"KM",)"
             R"("policyLabel":"p","seed":1,"cycle":0},"attempts":1,)"
             R"("retryHistory":[]}})",
             R"({"fingerprint":"a","outcome":{"status":"failed",)"
             R"("error":{"code":"internal","message":"m","workload":"KM",)"
             R"("policyLabel":"p","seed":1,"cycle":0},"attempts":"1",)"
             R"("retryHistory":[]}})",
             R"({"fingerprint":"b","outcome":{"status":"failed",)"
             R"("error":{"code":"internal","message":"m","workload":"KM",)"
             R"("policyLabel":"p","seed":-1,"cycle":0},"attempts":1,)"
             R"("retryHistory":[]}})",
             R"({"fingerprint":"c","outcome":{"status":"ok","error":null,)"
             R"("attempts":1,"retryHistory":[]}})",
             R"(["fingerprint","d"])",
         })
        text += std::string(bad) + "\n";
    writeFile(path, text);

    const runner::SweepJournal journal(path);
    EXPECT_EQ(journal.size(), 1u);
    EXPECT_TRUE(journal.find("ok").has_value());
}

TEST(Serialization, ServiceReplaySkipsMistypedRecords)
{
    QuietLog quiet;
    const std::string state = freshDir("latte_serialization_service");
    const std::string spec =
        R"({"workloads":["KM"],"policies":["Baseline"],)"
        R"("options":{"max_instructions_per_kernel":20000}})";
    std::string journal;
    for (const std::string &record : std::vector<std::string>{
             R"({"type":1,"job":1})",
             R"({"type":"submit","job":2,"client":5,"spec":)" + spec + "}",
             R"({"type":"submit","job":3,"priority":1e300,"spec":)" +
                 spec + "}",
             R"({"type":"submit","job":4,"spec":{"seeds":[-1]}})",
             R"({"type":"submit","job":5,"client":"a","priority":-2,)"
             R"("spec":)" + spec + "}",
             R"({"type":"done","job":5,"cells_done":"x"})",
             R"({"type":"submit","job":6,"spec":)" + spec + "}",
             R"({"type":"done","job":6,"state":"done",)"
             R"("cells_done":1,"served_from_cache":true})",
             R"({"type":"done","job":"6","state":"failed"})",
         })
        journal += record + "\n";
    writeFile(state + "/jobs.jsonl", journal);

    service::ServiceOptions options;
    options.stateDir = state;
    options.startPaused = true;
    service::SweepService service(options);
    const std::vector<service::JobInfo> jobs = service.jobs();
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].id, 5u);
    EXPECT_EQ(jobs[0].client, "a");
    EXPECT_EQ(jobs[0].priority, -2);
    EXPECT_EQ(jobs[0].state, service::JobState::Queued);
    EXPECT_EQ(jobs[0].cellsDone, 0u);
    EXPECT_EQ(jobs[1].id, 6u);
    EXPECT_EQ(jobs[1].state, service::JobState::Done);
    EXPECT_EQ(jobs[1].cellsDone, 1u);
    EXPECT_TRUE(jobs[1].servedFromCache);
    EXPECT_EQ(jobs[1].resultPath, state + "/job-6.result.json");
    EXPECT_EQ(service.counters().recovered, 1u);
}

TEST(Serialization, SpecErrorsNameThePath)
{
    const std::pair<const char *, const char *> cases[] = {
        {R"({"seeds":[1,-1]})", "seeds[1]: expected a non-negative integer"},
        {R"({"seeds":[1,"2"]})", "seeds[1]: expected a non-negative integer"},
        {R"({"seeds":[1.5]})", "seeds[0]: expected a non-negative integer"},
        {R"({"seeds":[1e300]})", "seeds[0]: out of range"},
        {R"({"retries":4294967296})", "retries: out of range"},
        {R"({"workloads":["KM",3]})", "workloads[1]: expected a string"},
        {R"({"policies":17})", "policies: expected an array"},
        {R"({"options":[]})", "options: expected an object"},
        {R"({"axes":[{"key":"cfg.num_sms"}]})", "axes[0].values: missing"},
        {R"({"axes":[{"key":5,"values":[]}]})",
         "axes[0].key: expected a string"},
        {R"({"name":null})", "name: expected a string"},
        {R"([])", "expected an object"},
    };
    for (const auto &[text, expected] : cases) {
        runner::SweepSpec spec;
        std::string error;
        EXPECT_FALSE(runner::SweepSpec::fromJson(parsed(text), spec, &error))
            << text;
        EXPECT_EQ(error, expected) << text;
    }

    // Option values go through the same codec, range-checked per field.
    DriverOptions options;
    std::string error;
    EXPECT_FALSE(runner::applyOption(options, "cfg.num_sms",
                                     Json(std::uint64_t{1} << 32), &error));
    EXPECT_EQ(error, "cfg.num_sms: out of range");
    EXPECT_FALSE(runner::applyOption(options, "cfg.num_sms", Json(-1.0),
                                     &error));
    EXPECT_EQ(error, "cfg.num_sms: expected a non-negative integer");
    EXPECT_TRUE(runner::applyOption(options, "cfg.num_sms", Json(4.0),
                                    &error));
    EXPECT_EQ(options.cfg.numSms, 4u);
}

TEST(Serialization, IntegerCodecsCheckTheirRange)
{
    std::uint64_t u = 0;
    EXPECT_TRUE(runner::decodeJson(Json(0x1p64 - 2048), u));
    EXPECT_EQ(u, 18446744073709549568ull);
    EXPECT_FALSE(runner::decodeJson(Json(0x1p64), u));
    EXPECT_TRUE(runner::decodeJson(Json(-0.0), u));
    EXPECT_EQ(u, 0u);

    std::uint32_t narrow = 0;
    EXPECT_FALSE(runner::decodeJson(Json(std::uint64_t{1} << 32), narrow));
    EXPECT_TRUE(runner::decodeJson(Json(4294967295.0), narrow));
    EXPECT_EQ(narrow, 4294967295u);

    std::int64_t i = 0;
    EXPECT_TRUE(runner::decodeJson(Json(-0x1p63), i));
    EXPECT_EQ(i, std::numeric_limits<std::int64_t>::min());
    EXPECT_FALSE(runner::decodeJson(Json(0x1p63), i));
    EXPECT_FALSE(runner::decodeJson(Json(std::uint64_t{1} << 63), i));
    EXPECT_TRUE(runner::decodeJson(Json(std::uint64_t{1} << 62), i));
    EXPECT_EQ(runner::encodeJson(std::int64_t{-3}).dump(), "-3.0");
    EXPECT_EQ(runner::encodeJson(std::int64_t{3}).dump(), "3");
}

TEST(Serialization, SubmitPriorityMustBeAnInt64)
{
    service::ServiceOptions options;
    options.stateDir = freshDir("latte_serialization_priority");
    options.startPaused = true;
    service::SweepService service(options);
    service::RequestDispatcher dispatcher(service);
    service::Session session;

    const std::string head =
        R"({"type":"submit","spec":{"workloads":["KM"],)"
        R"("policies":["Baseline"]},"priority":)";
    for (const char *priority : {"1e300", "\"high\"", "2.5", "null"}) {
        const Json response =
            dispatcher.handle(head + priority + "}", session);
        ASSERT_FALSE(response.at("ok").asBool()) << priority;
        EXPECT_EQ(response.at("error").at("code").asString(),
                  "invalid_spec")
            << priority;
        EXPECT_EQ(response.at("error").at("message").asString().find(
                      "priority: "),
                  0u)
            << priority;
    }
    const Json response = dispatcher.handle(head + "-9e18}", session);
    ASSERT_TRUE(response.at("ok").asBool()) << response.dump();
    const auto info = service.job(response.at("job").asUint());
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->priority, -9'000'000'000'000'000'000);
}

TEST(JsonFuzz, MutatedDocumentsFailCleanlyOrRoundTrip)
{
    // Fixed-seed byte flips, inserts, deletes and truncations of real
    // documents: a result, the CI's l2link spec and the wire protocol's
    // request lines. Every input must parse or fail with an error, and
    // every accepted one must round-trip through dump().
    std::ifstream spec_file(std::string(LATTE_SOURCE_DIR) +
                            "/bench/golden/l2link-spec.json");
    ASSERT_TRUE(spec_file.is_open());
    const std::string l2link_spec{std::istreambuf_iterator<char>(spec_file),
                                  std::istreambuf_iterator<char>()};
    const std::vector<std::string> seeds = {
        runner::toJson(fullResult()).dump(),
        runner::toJson(fullResult()).dump(2),
        l2link_spec,
        fullSpec().toJson().dump(),
        R"({"type":"ping","id":[1,"a",null],"client":"ci"})",
        R"({"type":"submit","spec":{"workloads":["KM"],)"
        R"("policies":["Baseline"]},"priority":-3.0})",
        R"({"type":"status","job":12})",
        R"({"type":"wait","job":18446744073709551615})",
        R"({"type":"cancel","job":3,"id":"x\u0001\n"})",
        R"({"type":"jobs"})",
        R"({"type":"stats","id":2.5e-3})",
        R"({"type":"metrics","id":true})",
        R"({"type":"subscribe","job":1})",
        R"({"type":"shutdown","id":false})",
    };
    // What an insert may add: punctuation, escapes, literals and
    // numbers at the edges of what a uint64 and a double hold.
    static const char *const kTokens[] = {
        "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u00", " ", "\n",
        "null", "true", "false", "-", "+", ".", "e", "E", "0", "9",
        "1e999", "-1e999", "1e-999", "1.7976931348623159e308",
        "18446744073709551616", "-0", "NaN", "inf", "0x10",
    };

    std::mt19937_64 rng(0x1a77ecc);
    constexpr unsigned kCases = 20000;
    unsigned accepted = 0;
    for (unsigned c = 0; c < kCases; ++c) {
        std::string text = seeds[c % seeds.size()];
        for (unsigned edits = 1 + rng() % 4; edits > 0; --edits) {
            const std::size_t at = rng() % (text.size() + 1);
            switch (rng() % 5) {
              case 0: // flip one bit
                if (at < text.size())
                    text[at] ^= static_cast<char>(1u << (rng() % 8));
                break;
              case 1: // insert any byte
                text.insert(at, 1, static_cast<char>(rng()));
                break;
              case 2:
                text.insert(at, kTokens[rng() % std::size(kTokens)]);
                break;
              case 3: // delete a short run
                text.erase(at, 1 + rng() % 8);
                break;
              default:
                text.resize(at);
                break;
            }
        }

        std::string error;
        const Json parsed = Json::parse(text, &error);
        if (!error.empty()) {
            EXPECT_EQ(parsed.type(), Json::Type::Null) << text;
            continue;
        }
        ++accepted;
        const std::string dumped = parsed.dump();
        const Json again = Json::parse(dumped, &error);
        ASSERT_TRUE(error.empty())
            << error << "\n input: " << text << "\n dump: " << dumped;
        ASSERT_EQ(again.dump(), dumped) << "input: " << text;
        ASSERT_EQ(Json::parse(parsed.dump(2)).dump(), dumped)
            << "input: " << text;
    }
    // Both outcomes are exercised.
    EXPECT_GT(accepted, kCases / 10);
    EXPECT_LT(accepted, kCases - kCases / 10);
}

} // namespace
