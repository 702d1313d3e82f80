/**
 * @file
 * Tests for the resilience subsystem: the RunOutcome error API (no
 * failure escapes as an exception or exit), the fault-injection
 * matrix, cycle-budget and cancellation handling, the per-attempt
 * wall-clock deadline, retry-with-backoff, and journal-gated resume producing
 * byte-identical sweeps after an interruption.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/driver.hh"
#include "runner/experiment_runner.hh"
#include "runner/json.hh"
#include "runner/resilience.hh"
#include "runner/result_cache.hh"
#include "runner/sweep.hh"
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

RunRequest
tinyRequest(const char *abbr = "KM",
            PolicyKind kind = PolicyKind::Baseline)
{
    const Workload *workload = findWorkload(abbr);
    EXPECT_NE(workload, nullptr);
    RunRequest request;
    request.workload = workload;
    request.policy = kind;
    request.options = tinyOptions();
    return request;
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

TEST(Resilience, FaultMatrixEveryKindYieldsItsErrorCode)
{
    const FaultKind kinds[] = {
        FaultKind::CompressorCorruption,
        FaultKind::DecompQueueStall,
        FaultKind::DramTimeout,
        FaultKind::AllocFailure,
    };
    for (const FaultKind kind : kinds) {
        RunRequest request = tinyRequest();
        request.control.faults.faults.push_back(
            FaultPoint{.kind = kind, .atCycle = 1'000});

        const RunOutcome outcome = run(request);
        EXPECT_EQ(outcome.status, RunStatus::Failed)
            << faultKindName(kind);
        EXPECT_EQ(outcome.error.code, faultErrorCode(kind))
            << faultKindName(kind);
        EXPECT_GE(outcome.error.cycle, 1'000u) << faultKindName(kind);
        EXPECT_FALSE(outcome.result.has_value()) << faultKindName(kind);
        EXPECT_FALSE(outcome.error.message.empty())
            << faultKindName(kind);
        // The error carries its cell context.
        EXPECT_EQ(outcome.error.workload, "KM") << faultKindName(kind);
    }
}

TEST(Resilience, FaultedCellDoesNotSinkTheSweep)
{
    // A sweep mixing healthy and faulted cells completes, the healthy
    // cells finish Ok, and the faulted cell reports its cause.
    std::vector<RunRequest> requests;
    requests.push_back(tinyRequest("KM"));
    requests.push_back(tinyRequest("KM", PolicyKind::LatteCc));
    requests.back().control.faults.faults.push_back(
        FaultPoint{.kind = FaultKind::DramTimeout, .atCycle = 2'000});
    requests.push_back(tinyRequest("SS"));

    RunnerOptions options;
    options.threads = 2;
    options.progress = false;
    ExperimentRunner runner(options);
    const auto outcomes = runner.runAll(requests);

    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[0].ok());
    EXPECT_EQ(outcomes[1].status, RunStatus::Failed);
    EXPECT_EQ(outcomes[1].error.code, RunErrorCode::DramTimeout);
    EXPECT_TRUE(outcomes[2].ok());
    EXPECT_EQ(runner.stats().failed, 1u);
}

TEST(Resilience, TransientFaultClearsOnRetry)
{
    // firstAttempts = 1 models a transient fault: attempt 1 trips it,
    // attempt 2 runs clean. With one retry the cell ends Ok and the
    // first attempt's error is preserved in the retry history.
    RunRequest request = tinyRequest();
    request.control.faults.faults.push_back(
        FaultPoint{.kind = FaultKind::CompressorCorruption,
                   .atCycle = 1'000,
                   .firstAttempts = 1});

    RunnerOptions options;
    options.threads = 1;
    options.progress = false;
    options.maxRetries = 1;
    options.retryBackoffMs = 1;
    ExperimentRunner runner(options);
    const auto outcomes = runner.runAll({request});

    ASSERT_EQ(outcomes.size(), 1u);
    const RunOutcome &outcome = outcomes[0];
    ASSERT_TRUE(outcome.ok()) << outcome.error.message;
    EXPECT_EQ(outcome.attempts, 2u);
    ASSERT_EQ(outcome.retryHistory.size(), 1u);
    EXPECT_EQ(outcome.retryHistory[0].code,
              RunErrorCode::CompressorCorruption);
    EXPECT_EQ(runner.stats().retried, 1u);
    EXPECT_EQ(runner.stats().failed, 0u);

    // The retried-to-ok result is bit-identical to a clean run.
    const RunOutcome clean = run(tinyRequest());
    ASSERT_TRUE(clean.ok());
    EXPECT_EQ(toJson(*outcome.result).dump(),
              toJson(*clean.result).dump());
}

TEST(Resilience, PersistentFaultExhaustsRetries)
{
    RunRequest request = tinyRequest();
    request.control.faults.faults.push_back(
        FaultPoint{.kind = FaultKind::AllocFailure, .atCycle = 500});

    RunnerOptions options;
    options.threads = 1;
    options.progress = false;
    options.maxRetries = 2;
    options.retryBackoffMs = 1;
    ExperimentRunner runner(options);
    const auto outcomes = runner.runAll({request});

    ASSERT_EQ(outcomes.size(), 1u);
    const RunOutcome &outcome = outcomes[0];
    EXPECT_EQ(outcome.status, RunStatus::Failed);
    EXPECT_EQ(outcome.error.code, RunErrorCode::AllocFailure);
    EXPECT_EQ(outcome.attempts, 3u); // 1 try + 2 retries
    ASSERT_EQ(outcome.retryHistory.size(), 2u);
    for (const RunError &prior : outcome.retryHistory)
        EXPECT_EQ(prior.code, RunErrorCode::AllocFailure);
}

TEST(Resilience, CycleBudgetTimesOutTheCell)
{
    RunRequest request = tinyRequest();
    request.control.cycleBudget = 5'000;

    const RunOutcome outcome = run(request);
    EXPECT_EQ(outcome.status, RunStatus::TimedOut);
    EXPECT_EQ(outcome.error.code, RunErrorCode::CycleBudgetExceeded);
    EXPECT_GE(outcome.error.cycle, 5'000u);
    EXPECT_FALSE(outcome.result.has_value());
}

TEST(Resilience, PreCancelledTokenCancelsImmediately)
{
    CancelToken token;
    token.cancel();

    RunRequest request = tinyRequest();
    request.control.cancel = &token;

    const RunOutcome outcome = run(request);
    EXPECT_EQ(outcome.status, RunStatus::Cancelled);
    EXPECT_EQ(outcome.error.code, RunErrorCode::Cancelled);
}

TEST(Resilience, CancelledCellsAreNotRetried)
{
    CancelToken token;
    token.cancel();
    RunRequest request = tinyRequest();
    request.control.cancel = &token;

    RunnerOptions options;
    options.threads = 1;
    options.progress = false;
    options.maxRetries = 3;
    options.retryBackoffMs = 1;
    ExperimentRunner runner(options);
    const auto outcomes = runner.runAll({request});

    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, RunStatus::Cancelled);
    EXPECT_EQ(outcomes[0].attempts, 1u);
    EXPECT_TRUE(outcomes[0].retryHistory.empty());
}

TEST(Resilience, InvalidConfigIsAFailureValueNotAnExit)
{
    RunRequest request = tinyRequest();
    request.options.cfg.l1.assoc = 0; // structurally broken

    const RunOutcome outcome = run(request);
    EXPECT_EQ(outcome.status, RunStatus::Failed);
    EXPECT_EQ(outcome.error.code, RunErrorCode::InvalidConfig);
    EXPECT_NE(outcome.error.message.find("l1Assoc"), std::string::npos)
        << outcome.error.message;
}

TEST(Resilience, SchedulerAndBlockLimitsAreInvalidConfigCells)
{
    // Knobs a client spec can set. Each value the SM model cannot run
    // (zero schedulers would divide by zero; more than the tolerance
    // meter tracks; no CTA slots) passes spec validation and must come
    // back as an invalid_config cell, not a crash.
    const std::pair<const char *, std::uint64_t> broken[] = {
        {"cfg.schedulers_per_sm", 0},
        {"cfg.schedulers_per_sm", GpuConfig::kMaxSchedulersPerSm + 1},
        {"cfg.max_blocks_per_sm", 0},
    };
    for (const auto &[key, value] : broken) {
        SweepSpec spec;
        spec.workloads = {"KM"};
        spec.policies = {"Baseline", "LATTE-CC"};
        spec.options["max_instructions_per_kernel"] =
            Json(std::uint64_t{20'000});
        spec.options[key] = Json(value);
        ASSERT_EQ(spec.validate(), "") << key;
        std::vector<RunRequest> cells;
        std::string error;
        ASSERT_TRUE(spec.expand(cells, &error)) << error;
        ASSERT_EQ(cells.size(), 2u);
        for (const RunRequest &cell : cells) {
            const RunOutcome outcome = run(cell);
            EXPECT_EQ(outcome.status, RunStatus::Failed) << key << value;
            EXPECT_STREQ(runErrorCodeName(outcome.error.code),
                         "invalid_config")
                << key << "=" << value << ": " << outcome.error.message;
        }
    }
}

TEST(Resilience, CtaThatFitsNoSmIsInvalidConfig)
{
    // KM's CTAs have 8 warps; with 4 warp slots no SM can ever place
    // one. Ending the kernel as "completed" would report an empty run
    // of 0 cycles as a success, and the result cache would keep it.
    RunRequest request = tinyRequest("KM", PolicyKind::LatteCc);
    request.options.cfg.maxWarpsPerSm = 4;
    ASSERT_FALSE(request.options.cfg.validationError().has_value());

    const RunOutcome outcome = run(request);
    EXPECT_EQ(outcome.status, RunStatus::Failed);
    EXPECT_EQ(outcome.error.code, RunErrorCode::InvalidConfig);
    EXPECT_NE(outcome.error.message.find("8 warps"), std::string::npos)
        << outcome.error.message;
    EXPECT_NE(outcome.error.message.find("4 warp slots"),
              std::string::npos)
        << outcome.error.message;
    EXPECT_NE(outcome.error.message.find("8 CTA slots"),
              std::string::npos)
        << outcome.error.message;
}

TEST(Resilience, NullWorkloadIsInvalidRequest)
{
    RunRequest request;
    const RunOutcome outcome = run(request);
    EXPECT_EQ(outcome.status, RunStatus::Failed);
    EXPECT_EQ(outcome.error.code, RunErrorCode::InvalidRequest);
}

/** A full-size cell: seconds of simulation, not milliseconds. */
RunRequest
fullSizeRequest(const char *abbr = "KM")
{
    RunRequest request;
    request.workload = findWorkload(abbr);
    request.policy = PolicyKind::LatteCc; // default (big) options
    return request;
}

TEST(Resilience, WatchdogTimesOutAHungCell)
{
    // A full-size machine takes far longer than the 1 ms budget, so
    // the cycle loop must pass the attempt's deadline and wind down
    // cooperatively, reporting TimedOut.
    RunnerOptions options;
    options.threads = 1;
    options.progress = false;
    options.cellTimeoutMs = 1;
    ExperimentRunner runner(options);
    const auto outcomes = runner.runAll({fullSizeRequest()});

    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, RunStatus::TimedOut);
    EXPECT_EQ(outcomes[0].error.code, RunErrorCode::WallClockTimeout);

    // The same deadline reaches run() directly: one already passed
    // stops the cell at its first cycle...
    using Clock = RunControl::Clock;
    RunRequest late = tinyRequest();
    late.control.deadline = Clock::now() - std::chrono::seconds(1);
    const RunOutcome expired = run(late);
    EXPECT_EQ(expired.status, RunStatus::TimedOut);
    EXPECT_EQ(expired.error.code, RunErrorCode::WallClockTimeout);
    EXPECT_FALSE(expired.result.has_value());

    // ...and one an hour away changes no byte of the result.
    RunRequest roomy = tinyRequest();
    roomy.control.deadline = Clock::now() + std::chrono::hours(1);
    const RunOutcome timed = run(roomy);
    const RunOutcome untimed = run(tinyRequest());
    ASSERT_TRUE(timed.ok()) << to_string(timed.error);
    ASSERT_TRUE(untimed.ok()) << to_string(untimed.error);
    EXPECT_EQ(toJson(*timed.result).dump(), toJson(*untimed.result).dump());

    // Budgets too large for the clock saturate to "no deadline"
    // instead of wrapping into one that has already passed. Several
    // cells, so a late first check cannot hide a wrapped deadline.
    for (const std::uint64_t budget :
         {std::uint64_t{10'000'000'000'000}, ~std::uint64_t{0}}) {
        RunnerOptions huge = options;
        huge.cellTimeoutMs = budget;
        const auto cells = ExperimentRunner(huge).runAll(
            {tinyRequest("KM"), tinyRequest("SS"), tinyRequest("PRK")});
        ASSERT_EQ(cells.size(), 3u);
        for (const RunOutcome &cell : cells)
            EXPECT_TRUE(cell.ok())
                << budget << " ms: " << to_string(cell.error);
    }
}

TEST(Resilience, CellTimeoutLeavesTheCallersTokenAlone)
{
    // Two cells carry one caller's token. The full-size cell (over a
    // second in a Release build) runs out of its wall-clock budget;
    // that must neither cancel the token nor touch the tiny cell that
    // runs after it. The budget leaves the tiny cell (milliseconds;
    // about 0.1 s under ThreadSanitizer) plenty of room.
    CancelToken token;
    RunRequest big = fullSizeRequest("DJK");
    big.control.cancel = &token;
    RunRequest tiny = tinyRequest();
    tiny.control.cancel = &token;

    RunnerOptions options;
    options.threads = 1;
    options.progress = false;
    options.cellTimeoutMs = 500;
    ExperimentRunner runner(options);
    const auto outcomes = runner.runAll({big, tiny});

    EXPECT_FALSE(token.cancelled());
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(outcomes[0].error.code, RunErrorCode::WallClockTimeout);
    EXPECT_TRUE(outcomes[1].ok()) << to_string(outcomes[1].error);
}

TEST(Resilience, JournalRoundTripsAndSkipsTruncatedTail)
{
    const std::string path = ::testing::TempDir() +
                             "/latte_resilience_journal_test.jsonl";
    std::filesystem::remove(path);

    RunError error;
    error.code = RunErrorCode::DramTimeout;
    error.message = "injected";
    error.workload = "KM";
    error.policyLabel = "LATTE-CC";
    error.cycle = 123;
    RunOutcome failed = RunOutcome::failure(error);
    failed.attempts = 2;
    failed.retryHistory.push_back(error);

    {
        SweepJournal journal(path);
        journal.record("cell-a", failed);
        EXPECT_EQ(journal.size(), 1u);
    }
    // Simulate a SIGKILL landing mid-append: a truncated JSON line.
    {
        std::ofstream out(path, std::ios::app);
        out << R"({"fingerprint": "cell-b", "outco)";
    }

    SweepJournal reloaded(path);
    EXPECT_EQ(reloaded.size(), 1u);
    EXPECT_FALSE(reloaded.find("cell-b").has_value());

    const auto entry = reloaded.find("cell-a");
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->status, RunStatus::Failed);
    EXPECT_EQ(entry->error.code, RunErrorCode::DramTimeout);
    EXPECT_EQ(entry->error.cycle, 123u);
    EXPECT_EQ(entry->attempts, 2u);
    ASSERT_EQ(entry->retryHistory.size(), 1u);

    std::filesystem::remove(path);
}

TEST(Resilience, ResumedSweepIsByteIdenticalToUninterrupted)
{
    const std::string dir =
        ::testing::TempDir() + "/latte_resilience_resume_test";
    std::filesystem::remove_all(dir);
    const std::string journal = dir + "/journal.jsonl";

    std::vector<RunRequest> grid;
    for (const char *abbr : {"KM", "PRK", "SS"}) {
        for (const PolicyKind kind :
             {PolicyKind::Baseline, PolicyKind::LatteCc}) {
            grid.push_back(tinyRequest(abbr, kind));
        }
    }

    // The reference: one uninterrupted run, no persistence at all.
    RunnerOptions plain;
    plain.threads = 2;
    plain.progress = false;
    const auto reference = ExperimentRunner(plain).runAll(grid);

    // "Crash" after the first four cells: a partial invocation that
    // journals and caches what it finished.
    RunnerOptions durable = plain;
    durable.cacheDir = dir + "/cache";
    durable.journalPath = journal;
    {
        const std::vector<RunRequest> partial(grid.begin(),
                                              grid.begin() + 4);
        ExperimentRunner(durable).runAll(partial);
    }

    // The resumed invocation runs the whole grid: four cells come back
    // via the journal + cache, two simulate fresh.
    ExperimentRunner resumed(durable);
    const auto outcomes = resumed.runAll(grid);
    EXPECT_EQ(resumed.stats().journalSkips, 4u);
    EXPECT_EQ(resumed.stats().executed, 2u);

    EXPECT_EQ(dumpAll(outcomes), dumpAll(reference));

    // A third invocation serves everything without simulating.
    ExperimentRunner warm(durable);
    const auto warm_outcomes = warm.runAll(grid);
    EXPECT_EQ(warm.stats().executed, 0u);
    EXPECT_EQ(warm.stats().journalSkips, grid.size());
    EXPECT_EQ(dumpAll(warm_outcomes), dumpAll(reference));

    std::filesystem::remove_all(dir);
}

TEST(Resilience, ResumeWithSimThreadsIsByteIdentical)
{
    // Kill-and-resume with --sim-threads=4 given: the option is ignored,
    // so the sweep must journal, resume and replay byte-identically to
    // an uninterrupted run, with every cell's simThreads envelope
    // field at 1.
    const std::string dir =
        ::testing::TempDir() + "/latte_resilience_simthreads_test";
    std::filesystem::remove_all(dir);
    const std::string journal = dir + "/journal.jsonl";

    std::vector<RunRequest> grid;
    for (const char *abbr : {"KM", "PRK", "SS"}) {
        RunRequest request = tinyRequest(abbr, PolicyKind::LatteCc);
        request.options.cfg.numSms = 8;
        request.options.simThreads = "4";
        grid.push_back(std::move(request));
    }

    RunnerOptions plain;
    plain.threads = 2;
    plain.progress = false;
    const auto reference = ExperimentRunner(plain).runAll(grid);
    for (const RunOutcome &outcome : reference) {
        ASSERT_TRUE(outcome.ok()) << to_string(outcome.error);
        EXPECT_EQ(outcome.simThreads, 1u);
    }

    // "Crash" after the first cell, then resume the whole grid.
    RunnerOptions durable = plain;
    durable.cacheDir = dir + "/cache";
    durable.journalPath = journal;
    {
        const std::vector<RunRequest> partial(grid.begin(),
                                              grid.begin() + 1);
        ExperimentRunner(durable).runAll(partial);
    }
    ExperimentRunner resumed(durable);
    const auto outcomes = resumed.runAll(grid);
    EXPECT_EQ(resumed.stats().journalSkips, 1u);
    EXPECT_EQ(resumed.stats().executed, 2u);
    EXPECT_EQ(dumpAll(outcomes), dumpAll(reference));

    // Warm replay: everything served from the journal + cache, still
    // byte-identical, simThreads envelope value included.
    ExperimentRunner warm(durable);
    const auto warm_outcomes = warm.runAll(grid);
    EXPECT_EQ(warm.stats().executed, 0u);
    EXPECT_EQ(dumpAll(warm_outcomes), dumpAll(reference));

    std::filesystem::remove_all(dir);
}

TEST(Resilience, JournalReplaysFailuresWithoutRerunning)
{
    const std::string dir =
        ::testing::TempDir() + "/latte_resilience_failjournal_test";
    std::filesystem::remove_all(dir);

    // A cycle budget (no injected faults, so the cell is journal-
    // eligible) forces a deterministic timeout.
    RunRequest request = tinyRequest();

    RunnerOptions options;
    options.threads = 1;
    options.progress = false;
    options.cacheDir = dir + "/cache";
    options.journalPath = dir + "/journal.jsonl";
    options.cellCycleBudget = 5'000;

    ExperimentRunner first(options);
    const auto cold = first.runAll({request});
    ASSERT_EQ(cold.size(), 1u);
    EXPECT_EQ(cold[0].status, RunStatus::TimedOut);
    EXPECT_EQ(first.stats().executed, 1u);

    ExperimentRunner second(options);
    const auto resumed = second.runAll({request});
    EXPECT_EQ(second.stats().executed, 0u);
    EXPECT_EQ(second.stats().journalSkips, 1u);
    ASSERT_EQ(resumed.size(), 1u);
    EXPECT_EQ(resumed[0].status, RunStatus::TimedOut);
    EXPECT_EQ(resumed[0].error.code,
              RunErrorCode::CycleBudgetExceeded);
    EXPECT_EQ(toJson(resumed[0]).dump(), toJson(cold[0]).dump());

    std::filesystem::remove_all(dir);
}

TEST(Resilience, CustomLabelIsAuthoritativeEverywhere)
{
    // A non-empty RunRequest::label wins over the catalogue name for
    // the result, the cache key and the error context alike.
    RunRequest request = tinyRequest();
    request.label = "My-Baseline";

    const RunKey key = RunKey::of(request);
    EXPECT_EQ(key.policyLabel, "My-Baseline");

    const RunOutcome ok = run(request);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.value().policyLabel, "My-Baseline");

    RunRequest faulted = request;
    faulted.control.faults.faults.push_back(
        FaultPoint{.kind = FaultKind::AllocFailure, .atCycle = 500});
    const RunOutcome bad = run(faulted);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error.policyLabel, "My-Baseline");
}

TEST(Resilience, SweepExportsFailedCellsAsPartialResults)
{
    const std::string path = ::testing::TempDir() +
                             "/latte_resilience_partial_test.json";
    std::filesystem::remove(path);

    {
        SweepCliOptions cli;
        cli.jobs = 2;
        cli.progress = false;
        cli.jsonPath = path;
        Sweep sweep(cli, tinyOptions());

        sweep.add(tinyRequest("KM"));
        RunRequest faulted = tinyRequest("SS");
        faulted.control.faults.faults.push_back(FaultPoint{
            .kind = FaultKind::DecompQueueStall, .atCycle = 2'000});
        sweep.add(faulted);

        EXPECT_TRUE(sweep.outcome(tinyRequest("KM")).ok());
        const RunOutcome &bad = sweep.outcome(faulted);
        EXPECT_EQ(bad.status, RunStatus::Failed);
        EXPECT_EQ(bad.error.code, RunErrorCode::DecompQueueStall);
        // Destructor writes the --json export.
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::string error;
    const Json doc = Json::parse(text, &error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_EQ(doc.asArray().size(), 2u);

    bool saw_ok = false, saw_failed = false;
    for (const Json &cell : doc.asArray()) {
        const std::string status = cell.at("status").asString();
        if (status == "ok") {
            saw_ok = true;
            EXPECT_EQ(cell.at("error").type(), Json::Type::Null);
            EXPECT_GT(cell.at("cycles").asUint(), 0u);
        } else {
            saw_failed = true;
            EXPECT_EQ(status, "failed");
            EXPECT_EQ(cell.at("error").at("code").asString(),
                      "decomp_queue_stall");
            EXPECT_EQ(cell.at("workload").asString(), "SS");
        }
    }
    EXPECT_TRUE(saw_ok);
    EXPECT_TRUE(saw_failed);

    std::filesystem::remove(path);
}

TEST(Resilience, ErrorCodeNamesRoundTrip)
{
    const RunErrorCode codes[] = {
        RunErrorCode::None,
        RunErrorCode::InvalidRequest,
        RunErrorCode::InvalidConfig,
        RunErrorCode::WallClockTimeout,
        RunErrorCode::CycleBudgetExceeded,
        RunErrorCode::Cancelled,
        RunErrorCode::CompressorCorruption,
        RunErrorCode::DecompQueueStall,
        RunErrorCode::DramTimeout,
        RunErrorCode::AllocFailure,
        RunErrorCode::Internal,
    };
    for (const RunErrorCode code : codes) {
        const char *name = runErrorCodeName(code);
        ASSERT_NE(name, nullptr);
        const RunErrorCode *back = runErrorCodeFromName(name);
        ASSERT_NE(back, nullptr) << name;
        EXPECT_EQ(*back, code);
    }
    EXPECT_EQ(runErrorCodeFromName("no-such-code"), nullptr);

    const RunStatus statuses[] = {RunStatus::Ok, RunStatus::Failed,
                                  RunStatus::TimedOut,
                                  RunStatus::Cancelled};
    for (const RunStatus status : statuses) {
        const RunStatus *back =
            runStatusFromName(runStatusName(status));
        ASSERT_NE(back, nullptr);
        EXPECT_EQ(*back, status);
    }
}

TEST(Resilience, ToStringRunErrorRoundTripsItsCode)
{
    // to_string(RunError) is THE human-facing form ("<code>: <msg>");
    // its leading token must parse back through runErrorCodeFromName
    // so log lines stay machine-greppable by code.
    RunError error;
    error.code = RunErrorCode::WallClockTimeout;
    error.message = "cell exceeded 5000 ms";
    const std::string text = to_string(error);
    const std::string token = text.substr(0, text.find(':'));
    const RunErrorCode *back = runErrorCodeFromName(token);
    ASSERT_NE(back, nullptr) << text;
    EXPECT_EQ(*back, error.code);
    EXPECT_NE(text.find(error.message), std::string::npos) << text;

    // Without a message the whole string IS the code token.
    RunError bare;
    bare.code = RunErrorCode::Cancelled;
    EXPECT_EQ(to_string(bare),
              runErrorCodeName(RunErrorCode::Cancelled));
    EXPECT_NE(runErrorCodeFromName(to_string(bare)), nullptr);
}

} // namespace
