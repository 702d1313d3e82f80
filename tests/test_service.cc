/**
 * @file
 * Tests for the latted job service: SweepSpec canonical JSON, the
 * acceptance property (a job submitted through the service produces a
 * result byte-identical to the same spec run in-process, and a
 * resubmit is served from cache with zero simulated cells), queue
 * order / quotas / cancellation, a job's compress_backend ending with
 * the job, journal recovery after an unclean stop, the wire protocol
 * via RequestDispatcher, and the AF_UNIX SocketServer itself
 * (concurrent clients, reaping finished connections, idling at the fd
 * limit, stale-socket takeover, the live-daemon probe).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "compress/backend.hh"
#include "core/driver.hh"
#include "fd_pressure.hh"
#include "runner/sweep.hh"
#include "runner/sweep_spec.hh"
#include "service/dispatcher.hh"
#include "service/socket_server.hh"
#include "service/sweep_service.hh"
#include "workloads/zoo.hh"

using namespace latte;
using namespace latte::service;

namespace
{

/** A spec whose cells cost milliseconds, mirroring tinyOptions(). */
runner::SweepSpec
tinySpec()
{
    runner::SweepSpec spec;
    spec.name = "tiny";
    spec.workloads = {"KM"};
    spec.policies = {"Baseline", "LATTE-CC"};
    spec.options["max_instructions_per_kernel"] =
        runner::Json(std::uint64_t{20'000});
    spec.options["cfg.num_sms"] = runner::Json(std::uint64_t{2});
    return spec;
}

std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "/" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(Service, SweepSpecJsonRoundTripsCanonically)
{
    runner::SweepSpec spec = tinySpec();
    spec.axes.push_back({"cfg.l1_size_bytes",
                         {runner::Json(std::uint64_t{16384}),
                          runner::Json(std::uint64_t{32768})}});
    spec.retries = 2;
    ASSERT_EQ(spec.validate(), "");

    const std::string dump = spec.toJson().dump();
    std::string error;
    runner::SweepSpec restored;
    ASSERT_TRUE(runner::SweepSpec::fromJson(
        runner::Json::parse(dump, &error), restored, &error))
        << error;
    EXPECT_EQ(restored.toJson().dump(), dump);
    EXPECT_EQ(restored.hash(), spec.hash());
    EXPECT_EQ(restored.cellCount(), spec.cellCount());
}

TEST(Service, ResultMatchesInProcessRunAndResubmitHitsCache)
{
    const std::string state = freshDir("latte_service_accept_state");
    const std::string cache = freshDir("latte_service_accept_cache");
    const std::string ref = freshDir("latte_service_accept_ref.json");
    const runner::SweepSpec spec = tinySpec();

    // Reference: the same spec run in-process through Sweep --json.
    {
        runner::SweepCliOptions cli;
        cli.jobs = 2;
        cli.progress = false;
        cli.jsonPath = ref;
        runner::Sweep sweep(cli);
        sweep.add(spec);
        sweep.run();
    } // destructor writes the --json export
    const std::string expected = readFile(ref);
    ASSERT_FALSE(expected.empty());

    ServiceOptions options;
    options.stateDir = state;
    options.cacheDir = cache;
    options.threads = 2;
    SweepService service(options);

    std::string error;
    const std::uint64_t first = service.submit(spec, "tester", 0, &error);
    ASSERT_NE(first, 0u) << error;
    JobInfo info;
    ASSERT_TRUE(service.waitJob(first, info));
    ASSERT_EQ(info.state, JobState::Done) << info.error;
    EXPECT_EQ(info.cellsDone, spec.cellCount());
    EXPECT_EQ(info.cellsFailed, 0u);

    // The acceptance property: byte-identical to the in-process run.
    EXPECT_EQ(readFile(info.resultPath), expected);

    // Resubmitting the same spec is answered from the shared result
    // cache without simulating a single cycle.
    const std::uint64_t second = service.submit(spec, "tester", 0, &error);
    ASSERT_NE(second, 0u) << error;
    ASSERT_TRUE(service.waitJob(second, info));
    ASSERT_EQ(info.state, JobState::Done) << info.error;
    EXPECT_TRUE(info.servedFromCache);
    EXPECT_EQ(info.cellsExecuted, 0u);
    EXPECT_EQ(info.cellsCached, spec.cellCount());
    EXPECT_EQ(readFile(info.resultPath), expected);

    const ServiceCounters counters = service.counters();
    EXPECT_EQ(counters.submitted, 2u);
    EXPECT_EQ(counters.completed, 2u);
    EXPECT_EQ(counters.jobsServedFromCache, 1u);
}

TEST(Service, InvalidSpecsAreRejected)
{
    ServiceOptions options;
    options.stateDir = freshDir("latte_service_invalid_state");
    options.startPaused = true;
    SweepService service(options);

    runner::SweepSpec spec = tinySpec();
    spec.policies = {"No-Such-Policy"};
    std::string error;
    EXPECT_EQ(service.submit(spec, "tester", 0, &error), 0u);
    EXPECT_NE(error.find("invalid spec"), std::string::npos) << error;

    spec = tinySpec();
    spec.options["cfg.no_such_knob"] = runner::Json(std::uint64_t{1});
    EXPECT_EQ(service.submit(spec, "tester", 0, &error), 0u);
    EXPECT_NE(error.find("invalid spec"), std::string::npos) << error;

    // The decompression queue has no capacity, so no key sets one.
    spec = tinySpec();
    spec.options["cfg.decomp_queue_entries"] =
        runner::Json(std::uint64_t{16});
    EXPECT_EQ(service.submit(spec, "tester", 0, &error), 0u);
    EXPECT_NE(error.find("unknown option key"), std::string::npos)
        << error;

    // sim_threads is ignored, but old specs that set it still load and
    // a malformed value is still refused.
    spec = tinySpec();
    spec.options["sim_threads"] = runner::Json("4");
    EXPECT_EQ(spec.validate(), "");
    spec.options["sim_threads"] = runner::Json("0");
    EXPECT_EQ(service.submit(spec, "tester", 0, &error), 0u);
    EXPECT_NE(error.find("sim_threads"), std::string::npos) << error;
    EXPECT_EQ(service.counters().rejected, 4u);
}

TEST(Service, UnrunnableConfigFailsCellsNotTheService)
{
    // Zero warp schedulers passes spec validation, and the cells run
    // in-process, where a division by zero would take the daemon down.
    // Each cell must fail as invalid_config and the job finish.
    ServiceOptions options;
    options.stateDir = freshDir("latte_service_unrunnable_state");
    options.threads = 1;
    SweepService service(options);

    runner::SweepSpec spec = tinySpec();
    spec.options["cfg.schedulers_per_sm"] = runner::Json(std::uint64_t{0});
    std::string error;
    const std::uint64_t bad = service.submit(spec, "tester", 0, &error);
    ASSERT_NE(bad, 0u) << error;
    JobInfo info;
    ASSERT_TRUE(service.waitJob(bad, info));
    EXPECT_EQ(info.state, JobState::Done) << info.error;
    EXPECT_EQ(info.cellsFailed, spec.cellCount());
    EXPECT_NE(readFile(info.resultPath).find("invalid_config"),
              std::string::npos);

    // The service keeps serving.
    const std::uint64_t good =
        service.submit(tinySpec(), "tester", 0, &error);
    ASSERT_NE(good, 0u) << error;
    ASSERT_TRUE(service.waitJob(good, info));
    EXPECT_EQ(info.state, JobState::Done) << info.error;
    EXPECT_EQ(info.cellsFailed, 0u);
}

TEST(Service, ZeroSampleSetsOrVftEntriesFailCellsNotTheService)
{
    // Each passes spec validation. Zero sample sets divided by zero in
    // the mode selector, and zero VFT entries aborted in every SM's SC
    // engine, as a 64 B line did in the compression domain: each took
    // the daemon down with the cell. Zero DRAM bandwidth wrote an
    // infinite queue delay (not JSON) into the result, a negative NoC
    // bandwidth gave negative service times, and a DRAM latency below
    // the L2's wrapped DRAM's unsigned extra latency.
    ServiceOptions options;
    options.stateDir = freshDir("latte_service_zero_latte_state");
    options.threads = 1;
    SweepService service(options);

    const std::pair<const char *, runner::Json> unrunnable[] = {
        {"cfg.latte.dedicated_sets_per_mode", runner::Json(std::uint64_t{0})},
        {"cfg.latte.vft_entries", runner::Json(std::uint64_t{0})},
        {"cfg.l1_line_bytes", runner::Json(std::uint64_t{64})},
        {"cfg.dram_bytes_per_cycle", runner::Json(std::uint64_t{0})},
        {"cfg.noc_bytes_per_cycle", runner::Json(-1.0)},
        {"cfg.dram_min_latency", runner::Json(std::uint64_t{100})},
    };
    for (const auto &[key, value] : unrunnable) {
        runner::SweepSpec spec = tinySpec();
        spec.options[key] = value;
        std::string error;
        const std::uint64_t bad = service.submit(spec, "tester", 0, &error);
        ASSERT_NE(bad, 0u) << key << ": " << error;
        JobInfo info;
        ASSERT_TRUE(service.waitJob(bad, info)) << key;
        EXPECT_EQ(info.state, JobState::Done) << key << ": " << info.error;
        EXPECT_EQ(info.cellsFailed, spec.cellCount()) << key;
        EXPECT_NE(readFile(info.resultPath).find("invalid_config"),
                  std::string::npos)
            << key;
    }

    // The next request is served.
    std::string error;
    const std::uint64_t good =
        service.submit(tinySpec(), "tester", 0, &error);
    ASSERT_NE(good, 0u) << error;
    JobInfo info;
    ASSERT_TRUE(service.waitJob(good, info));
    EXPECT_EQ(info.state, JobState::Done) << info.error;
    EXPECT_EQ(info.cellsFailed, 0u);
}

TEST(Service, CompressBackendDoesNotOutliveItsJob)
{
    // A spec's compress_backend installs its backend process-wide for
    // its cells; the next job, which names none, must run on (and its
    // envelopes name) the backend the service started with.
    const std::string startup = activeCompressorBackend().name;
    if (startup == "scalar")
        GTEST_SKIP() << "the service starts on the scalar backend";

    ServiceOptions options;
    options.stateDir = freshDir("latte_service_backend_state");
    options.threads = 1;
    SweepService service(options);

    const auto envelope_backends = [](const std::string &path) {
        std::string error;
        const runner::Json doc = runner::Json::parse(readFile(path), &error);
        EXPECT_EQ(error, "");
        std::vector<std::string> names;
        for (const runner::Json &outcome : doc.asArray())
            names.push_back(outcome.at("compressBackend").asString());
        return names;
    };

    runner::SweepSpec scalar_spec = tinySpec();
    scalar_spec.options["compress_backend"] = runner::Json("scalar");
    std::string error;
    const std::uint64_t first =
        service.submit(scalar_spec, "tester", 0, &error);
    ASSERT_NE(first, 0u) << error;
    JobInfo info;
    ASSERT_TRUE(service.waitJob(first, info));
    ASSERT_EQ(info.state, JobState::Done) << info.error;
    for (const std::string &name : envelope_backends(info.resultPath))
        EXPECT_EQ(name, "scalar");

    const std::uint64_t second =
        service.submit(tinySpec(), "tester", 0, &error);
    ASSERT_NE(second, 0u) << error;
    ASSERT_TRUE(service.waitJob(second, info));
    ASSERT_EQ(info.state, JobState::Done) << info.error;
    const std::vector<std::string> names =
        envelope_backends(info.resultPath);
    EXPECT_EQ(names.size(), tinySpec().cellCount());
    for (const std::string &name : names)
        EXPECT_EQ(name, startup);
    EXPECT_EQ(activeCompressorBackend().name, startup);
}

TEST(Service, QuotasQueueCapAndPriorities)
{
    ServiceOptions options;
    options.stateDir = freshDir("latte_service_quota_state");
    options.cacheDir = freshDir("latte_service_quota_cache");
    options.threads = 2;
    options.clientQuota = 2;
    options.maxQueue = 3;
    options.startPaused = true;
    SweepService service(options);

    const runner::SweepSpec spec = tinySpec();
    std::string error;
    const std::uint64_t low = service.submit(spec, "alice", 0, &error);
    ASSERT_NE(low, 0u) << error;
    const std::uint64_t high = service.submit(spec, "alice", 5, &error);
    ASSERT_NE(high, 0u) << error;

    // Third live job for the same client exceeds its quota...
    EXPECT_EQ(service.submit(spec, "alice", 0, &error), 0u);
    EXPECT_NE(error.find("quota"), std::string::npos) << error;
    // ...but another client still gets in.
    const std::uint64_t other = service.submit(spec, "bob", 1, &error);
    ASSERT_NE(other, 0u) << error;
    // Now the global queue cap kicks in for everyone.
    EXPECT_EQ(service.submit(spec, "carol", 0, &error), 0u);
    EXPECT_NE(error.find("queue full"), std::string::npos) << error;
    EXPECT_EQ(service.queueDepth(), 3u);

    // Highest priority first; FIFO within equal priority.
    std::vector<std::uint64_t> started;
    std::mutex started_mutex;
    const std::uint64_t token =
        service.addListener([&](const runner::Json &event) {
            if (event.at("event").asString() == "job_started") {
                std::lock_guard<std::mutex> lock(started_mutex);
                started.push_back(event.at("job").asUint());
            }
        });
    service.resume();
    service.waitIdle();
    service.removeListener(token);
    EXPECT_EQ(started,
              (std::vector<std::uint64_t>{high, other, low}));
}

TEST(Service, CancelQueuedJobImmediately)
{
    ServiceOptions options;
    options.stateDir = freshDir("latte_service_cancel_state");
    options.startPaused = true;
    SweepService service(options);

    std::string error;
    const std::uint64_t id =
        service.submit(tinySpec(), "tester", 0, &error);
    ASSERT_NE(id, 0u) << error;
    EXPECT_TRUE(service.cancel(id, &error)) << error;

    JobInfo info;
    ASSERT_TRUE(service.waitJob(id, info));
    EXPECT_EQ(info.state, JobState::Cancelled);
    // A terminal job cannot be cancelled again, nor an unknown id.
    EXPECT_FALSE(service.cancel(id, &error));
    EXPECT_FALSE(service.cancel(999, &error));
    EXPECT_EQ(service.counters().cancelled, 1u);
}

TEST(Service, JournalRecoveryRequeuesUnfinishedJobs)
{
    const std::string state = freshDir("latte_service_recover_state");
    const std::string cache = freshDir("latte_service_recover_cache");
    const runner::SweepSpec spec = tinySpec();
    std::uint64_t first = 0, second = 0;

    {
        ServiceOptions options;
        options.stateDir = state;
        options.cacheDir = cache;
        options.startPaused = true;
        SweepService service(options);
        std::string error;
        first = service.submit(spec, "tester", 0, &error);
        ASSERT_NE(first, 0u) << error;
        runner::SweepSpec other = spec;
        other.name = "tiny-2";
        other.seeds = {7};
        second = service.submit(other, "tester", 0, &error);
        ASSERT_NE(second, 0u) << error;
    } // destroyed with both jobs still queued — like a SIGKILL

    {
        ServiceOptions options;
        options.stateDir = state;
        options.cacheDir = cache;
        options.threads = 2;
        SweepService service(options);
        EXPECT_EQ(service.counters().recovered, 2u);
        service.waitIdle();
        JobInfo info;
        ASSERT_TRUE(service.waitJob(first, info));
        EXPECT_EQ(info.state, JobState::Done) << info.error;
        ASSERT_TRUE(service.waitJob(second, info));
        EXPECT_EQ(info.state, JobState::Done) << info.error;
    }

    // A third incarnation sees both jobs terminal: nothing to recover.
    {
        ServiceOptions options;
        options.stateDir = state;
        options.cacheDir = cache;
        options.startPaused = true;
        SweepService service(options);
        EXPECT_EQ(service.counters().recovered, 0u);
        const std::vector<JobInfo> jobs = service.jobs();
        ASSERT_EQ(jobs.size(), 2u);
        for (const JobInfo &job : jobs)
            EXPECT_EQ(job.state, JobState::Done);
    }
}

TEST(Service, DispatcherSpeaksTheWireProtocol)
{
    ServiceOptions options;
    options.stateDir = freshDir("latte_service_proto_state");
    options.startPaused = true;
    SweepService service(options);
    RequestDispatcher dispatcher(service);
    Session session;

    auto errorCode = [](const runner::Json &response) {
        return response.at("error").at("code").asString();
    };

    runner::Json response =
        dispatcher.handle(R"({"type":"ping"})", session);
    EXPECT_TRUE(response.at("ok").asBool());

    EXPECT_EQ(errorCode(dispatcher.handle("{not json", session)),
              "bad_json");
    EXPECT_EQ(errorCode(dispatcher.handle(R"({"type":"nope"})", session)),
              "unknown_type");
    EXPECT_EQ(errorCode(dispatcher.handle(
                  R"({"type":"status","job":42})", session)),
              "unknown_job");
    EXPECT_EQ(errorCode(dispatcher.handle(
                  R"({"type":"submit","spec":{"policies":17}})", session)),
              "invalid_spec");

    // A number a double cannot hold is bad JSON, not an inf that the
    // journal would write back as an unparsable line.
    std::string overflowing = tinySpec().toJson().dump();
    const std::size_t options_at = overflowing.find(R"("options":{)");
    ASSERT_NE(options_at, std::string::npos) << overflowing;
    overflowing.insert(options_at + 11,
                       R"("cfg.noc_bytes_per_cycle":1e999,)");
    EXPECT_EQ(errorCode(dispatcher.handle(
                  R"({"type":"submit","spec":)" + overflowing + "}",
                  session)),
              "bad_json");
    EXPECT_EQ(errorCode(dispatcher.handle(R"({"type":"ping","id":1e999})",
                                          session)),
              "bad_json");

    // A well-formed submit; the session's client identity sticks.
    const std::string submit =
        R"({"type":"submit","client":"wire","spec":)" +
        tinySpec().toJson().dump() + "}";
    response = dispatcher.handle(submit, session);
    ASSERT_TRUE(response.at("ok").asBool());
    const std::uint64_t id = response.at("job").asUint();
    EXPECT_EQ(session.client, "wire");

    response = dispatcher.handle(
        R"({"type":"status","job":)" + std::to_string(id) + "}",
        session);
    ASSERT_TRUE(response.at("ok").asBool());
    EXPECT_EQ(response.at("info").at("state").asString(), "queued");

    response = dispatcher.handle(R"({"type":"stats"})", session);
    ASSERT_TRUE(response.at("ok").asBool());
    EXPECT_EQ(response.at("stats").at("submitted").asUint(), 1u);
    EXPECT_EQ(response.at("stats").at("queue_depth").asUint(), 1u);

    // The journal holds the one acknowledged submit, and it parses.
    std::istringstream journal(readFile(options.stateDir + "/jobs.jsonl"));
    std::size_t records = 0;
    for (std::string line; std::getline(journal, line); ++records) {
        std::string error;
        runner::Json::parse(line, &error);
        EXPECT_TRUE(error.empty()) << error << ": " << line;
    }
    EXPECT_EQ(records, 1u);

    response = dispatcher.handle(R"({"type":"metrics"})", session);
    ASSERT_TRUE(response.at("ok").asBool());
    EXPECT_NE(response.at("prometheus").asString().find(
                  "latte_service_queue_depth"),
              std::string::npos);

    // Subscribe needs a send channel; this session has none.
    EXPECT_EQ(errorCode(dispatcher.handle(R"({"type":"subscribe"})",
                                          session)),
              "unknown_type");

    bool shutdown_requested = false;
    dispatcher.onShutdown([&] { shutdown_requested = true; });
    response = dispatcher.handle(R"({"type":"shutdown"})", session);
    EXPECT_TRUE(response.at("ok").asBool());
    // The hook is deferred so the ack reaches the wire first; the
    // transport invokes it after writing the response.
    EXPECT_FALSE(shutdown_requested);
    ASSERT_TRUE(static_cast<bool>(session.afterResponse));
    session.afterResponse();
    EXPECT_TRUE(shutdown_requested);
    dispatcher.closeSession(session);
}

sockaddr_un
unixAddress(const std::string &path)
{
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    return addr;
}

/** A connected AF_UNIX stream socket to @p path, or -1. */
int
unixConnect(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    if (fd < 0)
        return -1;
    const sockaddr_un addr = unixAddress(path);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ADD_FAILURE() << "connect " << path << ": "
                      << std::strerror(errno);
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Read one newline-delimited line from @p fd (without the newline). */
std::string
readLine(int fd)
{
    std::string line;
    char c;
    while (::recv(fd, &c, 1, 0) == 1 && c != '\n')
        line += c;
    return line;
}

/** Connect to @p path, send @p line, read one newline-delimited reply. */
std::string
unixRequest(const std::string &path, const std::string &line)
{
    const int fd = unixConnect(path);
    if (fd < 0)
        return {};
    const std::string request = line + "\n";
    EXPECT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(request.size()));
    const std::string reply = readLine(fd);
    ::close(fd);
    return reply;
}

TEST(Service, SocketServerHandlesConcurrentClients)
{
    const std::string dir = freshDir("latte_socket_concurrent");
    std::filesystem::create_directories(dir);
    const std::string socket_path = dir + "/latted.sock";

    ServiceOptions options;
    options.stateDir = dir;
    options.startPaused = true;
    SweepService service(options);
    RequestDispatcher dispatcher(service);
    SocketServer server(dispatcher, socket_path);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    constexpr int kClients = 8;
    std::vector<std::thread> clients;
    std::vector<std::string> replies(kClients);
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
        clients.emplace_back([&socket_path, &replies, i] {
            replies[i] =
                unixRequest(socket_path, R"({"type":"ping"})");
        });
    }
    for (std::thread &client : clients)
        client.join();

    for (int i = 0; i < kClients; ++i) {
        std::string parse_error;
        const runner::Json reply =
            runner::Json::parse(replies[i], &parse_error);
        ASSERT_TRUE(parse_error.empty())
            << "client " << i << ": " << parse_error;
        EXPECT_TRUE(reply.at("ok").asBool()) << "client " << i;
    }
    server.stop();
}

TEST(Service, SocketServerReapsFinishedConnections)
{
    const std::string dir = freshDir("latte_socket_reap");
    std::filesystem::create_directories(dir);
    const std::string socket_path = dir + "/latted.sock";

    ServiceOptions options;
    options.stateDir = dir;
    options.startPaused = true;
    SweepService service(options);
    RequestDispatcher dispatcher(service);
    SocketServer server(dispatcher, socket_path);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    const std::size_t before = test::openFdCount();

    // Another client submits and cancels jobs throughout, so events
    // reach the subscriptions below from its reader thread while their
    // clients disconnect.
    std::atomic<bool> done{false};
    std::thread submitter([&] {
        const int fd = unixConnect(socket_path);
        if (fd < 0)
            return;
        const std::string submit = R"({"type":"submit","spec":)" +
                                   tinySpec().toJson().dump() + "}\n";
        while (!done.load()) {
            ::send(fd, submit.data(), submit.size(), MSG_NOSIGNAL);
            std::string parse_error;
            const runner::Json reply =
                runner::Json::parse(readLine(fd), &parse_error);
            if (!parse_error.empty() || !reply.at("ok").asBool()) {
                ADD_FAILURE() << "submit failed: " << reply.dump();
                break;
            }
            const std::string cancel =
                R"({"type":"cancel","job":)" +
                std::to_string(reply.at("job").asUint()) + "}\n";
            ::send(fd, cancel.data(), cancel.size(), MSG_NOSIGNAL);
            readLine(fd);
        }
        ::close(fd);
    });

    constexpr int kConnections = 200;
    for (int i = 0; i < kConnections; ++i) {
        if (i % 2 == 0) {
            // Subscribe, take the ack (or a first event), hang up.
            const int fd = unixConnect(socket_path);
            ASSERT_GE(fd, 0);
            const std::string subscribe = "{\"type\":\"subscribe\"}\n";
            ::send(fd, subscribe.data(), subscribe.size(), MSG_NOSIGNAL);
            EXPECT_FALSE(readLine(fd).empty());
            ::close(fd);
        } else {
            EXPECT_NE(unixRequest(socket_path, R"({"type":"ping"})")
                          .find("\"ok\":true"),
                      std::string::npos);
        }
    }
    done.store(true);
    submitter.join();

    // Readers see their peers hang up asynchronously, and a finished
    // connection is reaped at the next accept: ping until it settles.
    constexpr std::size_t kSlack = 4;
    std::size_t after = test::openFdCount();
    for (int attempt = 0; attempt < 200 && after > before + kSlack;
         ++attempt) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        unixRequest(socket_path, R"({"type":"ping"})");
        after = test::openFdCount();
    }
    EXPECT_LE(after, before + kSlack)
        << kConnections << " connections took the process from " << before
        << " to " << after << " open fds";
    server.stop();
}

TEST(Service, SocketServerIdlesAtTheFdLimitAndRecovers)
{
    // At its fd limit the server's accept fails while connections wait
    // in its backlog. It must not spin on the readable listen socket,
    // and it must serve again once the idle clients leave.
    const std::string dir = freshDir("latte_socket_fd_limit");
    std::filesystem::create_directories(dir);
    const std::string socket_path = dir + "/latted.sock";

    ServiceOptions options;
    options.stateDir = dir;
    options.startPaused = true;
    SweepService service(options);
    RequestDispatcher dispatcher(service);
    SocketServer server(dispatcher, socket_path);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    const sockaddr_un addr = unixAddress(socket_path);
    const auto *address = reinterpret_cast<const sockaddr *>(&addr);
    EXPECT_LT(test::cpuSecondsAtFdLimit(address, sizeof(addr)), 0.3)
        << "the server spins while out of fds";

    const auto start = std::chrono::steady_clock::now();
    const int fd = test::connectWithin(address, sizeof(addr),
                                       std::chrono::seconds(2));
    ASSERT_GE(fd, 0) << std::strerror(errno);
    const std::string ping = "{\"type\":\"ping\"}\n";
    ::send(fd, ping.data(), ping.size(), MSG_NOSIGNAL);
    const std::string reply = readLine(fd);
    ::close(fd);
    EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(2));
    server.stop();
}

TEST(Service, SocketServerDropsOverlongLinesAndNestedJson)
{
    const std::string dir = freshDir("latte_socket_limits");
    std::filesystem::create_directories(dir);
    const std::string socket_path = dir + "/latted.sock";

    ServiceOptions options;
    options.stateDir = dir;
    options.startPaused = true;
    SweepService service(options);
    RequestDispatcher dispatcher(service);
    SocketServer server(dispatcher, socket_path);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    // 2 MiB with no newline: one line_too_long answer, then EOF. The
    // server stops reading mid-line, so the tail of the send may fail.
    const int fd = unixConnect(socket_path);
    ASSERT_GE(fd, 0);
    const std::string flood(2 * SocketServer::kMaxLineBytes, 'x');
    std::size_t sent = 0;
    while (sent < flood.size()) {
        const ssize_t n = ::send(fd, flood.data() + sent,
                                 flood.size() - sent, MSG_NOSIGNAL);
        if (n <= 0)
            break;
        sent += static_cast<std::size_t>(n);
    }
    std::string parse_error;
    const runner::Json reply =
        runner::Json::parse(readLine(fd), &parse_error);
    ASSERT_TRUE(parse_error.empty()) << parse_error;
    EXPECT_FALSE(reply.at("ok").asBool());
    EXPECT_EQ(reply.at("error").at("code").asString(), "line_too_long");
    char c;
    EXPECT_EQ(::recv(fd, &c, 1, 0), 0) << "connection left open";
    ::close(fd);

    // Nesting far past the JSON cap is a plain bad_json answer.
    const std::string nested =
        std::string(100'000, '[') + std::string(100'000, ']');
    const runner::Json deep =
        runner::Json::parse(unixRequest(socket_path, nested), &parse_error);
    ASSERT_TRUE(parse_error.empty()) << parse_error;
    EXPECT_EQ(deep.at("error").at("code").asString(), "bad_json");

    // The daemon still serves a fresh connection.
    const runner::Json ping = runner::Json::parse(
        unixRequest(socket_path, R"({"type":"ping"})"), &parse_error);
    ASSERT_TRUE(parse_error.empty()) << parse_error;
    EXPECT_TRUE(ping.at("ok").asBool());
    server.stop();
}

TEST(Service, SocketServerReplacesStaleSocketButNotALiveOne)
{
    const std::string dir = freshDir("latte_socket_stale");
    std::filesystem::create_directories(dir);
    const std::string socket_path = dir + "/latted.sock";

    // A SIGKILLed daemon leaves its socket file behind with nobody
    // listening. Manufacture that state directly.
    {
        const sockaddr_un addr = unixAddress(socket_path);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
                         sizeof(addr)),
                  0)
            << std::strerror(errno);
        ::close(fd); // no unlink: the file stays, dead
    }
    ASSERT_TRUE(std::filesystem::exists(socket_path));

    ServiceOptions options;
    options.stateDir = dir;
    options.startPaused = true;
    SweepService service(options);
    RequestDispatcher dispatcher(service);

    // The probe finds nobody answering and takes the path over.
    SocketServer server(dispatcher, socket_path);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    std::string parse_error;
    const runner::Json reply = runner::Json::parse(
        unixRequest(socket_path, R"({"type":"ping"})"), &parse_error);
    ASSERT_TRUE(parse_error.empty()) << parse_error;
    EXPECT_TRUE(reply.at("ok").asBool());

    // With the first daemon live, a second one must refuse to start —
    // the probe connects successfully and backs off.
    SocketServer rival(dispatcher, socket_path);
    EXPECT_FALSE(rival.start(&error));
    EXPECT_NE(error.find("another daemon is live"), std::string::npos)
        << error;

    // The loser's failed start must not have unlinked the winner's
    // socket: the original server still answers.
    parse_error.clear();
    const runner::Json again = runner::Json::parse(
        unixRequest(socket_path, R"({"type":"ping"})"), &parse_error);
    ASSERT_TRUE(parse_error.empty()) << parse_error;
    EXPECT_TRUE(again.at("ok").asBool());

    server.stop();
    EXPECT_FALSE(std::filesystem::exists(socket_path));
}

} // namespace
