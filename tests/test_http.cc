/**
 * @file
 * Tests for the HTTP scrape surface: request parsing and routing
 * (200/400/404/405), ephemeral-port binding, concurrent scrapes, and
 * the /metrics, /healthz and /jobs endpoints wired to a live
 * SweepService — including the monotone-counter property across
 * scrapes — and an idle server at its fd limit. The client side is a
 * raw AF_INET socket speaking HTTP/1.0, which is exactly what the
 * server promises to understand.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "fd_pressure.hh"
#include "runner/json.hh"
#include "runner/sweep_spec.hh"
#include "service/http_server.hh"
#include "service/sweep_service.hh"

using namespace latte;
using namespace latte::service;

namespace
{

/** Mirrors the service-test spec: cells cost milliseconds. */
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

struct HttpReply
{
    int status = 0;
    std::string head;
    std::string body;
};

sockaddr_in
loopbackAddress(std::uint16_t port)
{
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return addr;
}

/** Send @p request on the connected @p fd; read until EOF; close. */
std::string
exchange(int fd, const std::string &request)
{
    std::size_t off = 0;
    while (off < request.size()) {
        const ssize_t n = ::send(fd, request.data() + off,
                                 request.size() - off, MSG_NOSIGNAL);
        if (n <= 0)
            break;
        off += static_cast<std::size_t>(n);
    }

    std::string raw;
    char chunk[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        raw.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return raw;
}

/** Send @p request verbatim to 127.0.0.1:@p port; read until EOF. */
HttpReply
rawRequest(std::uint16_t port, const std::string &request)
{
    HttpReply reply;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    if (fd < 0)
        return reply;

    const sockaddr_in addr = loopbackAddress(port);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ADD_FAILURE() << "connect: " << std::strerror(errno);
        ::close(fd);
        return reply;
    }

    const std::string raw = exchange(fd, request);
    const std::size_t split = raw.find("\r\n\r\n");
    EXPECT_NE(split, std::string::npos) << raw;
    if (split == std::string::npos)
        return reply;
    reply.head = raw.substr(0, split);
    reply.body = raw.substr(split + 4);
    // "HTTP/1.0 200 OK"
    if (reply.head.size() > 12)
        reply.status = std::atoi(reply.head.c_str() + 9);
    return reply;
}

HttpReply
httpGet(std::uint16_t port, const std::string &path)
{
    return rawRequest(port,
                      "GET " + path + " HTTP/1.0\r\n"
                      "Host: 127.0.0.1\r\n\r\n");
}

/** Value of the unlabeled sample line "name value" in @p exposition. */
double
sampleValue(const std::string &exposition, const std::string &name)
{
    std::size_t pos = 0;
    while ((pos = exposition.find(name + " ", pos)) !=
           std::string::npos) {
        if (pos == 0 || exposition[pos - 1] == '\n')
            return std::atof(
                exposition.c_str() + pos + name.size() + 1);
        pos += name.size();
    }
    ADD_FAILURE() << "no sample for " << name;
    return -1.0;
}

TEST(Http, RoutesRequestsAndReportsErrors)
{
    HttpServer server("0"); // ephemeral port on 127.0.0.1
    server.handle("/ping", [] {
        return HttpServer::Response{200, "text/plain; charset=utf-8",
                                    "pong\n"};
    });
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    ASSERT_NE(server.port(), 0u);

    HttpReply reply = httpGet(server.port(), "/ping");
    EXPECT_EQ(reply.status, 200);
    EXPECT_EQ(reply.body, "pong\n");
    EXPECT_NE(reply.head.find("Content-Length: 5"), std::string::npos);
    EXPECT_NE(reply.head.find("Connection: close"), std::string::npos);

    // Query strings are stripped before routing.
    EXPECT_EQ(httpGet(server.port(), "/ping?verbose=1").status, 200);
    EXPECT_EQ(httpGet(server.port(), "/nope").status, 404);
    EXPECT_EQ(rawRequest(server.port(),
                         "POST /ping HTTP/1.0\r\n\r\n")
                  .status,
              405);
    EXPECT_EQ(rawRequest(server.port(), "\r\n\r\n").status, 400);

    server.stop();
}

TEST(Http, RejectsBadAddresses)
{
    std::string error;

    HttpServer bad_port("notaport");
    EXPECT_FALSE(bad_port.start(&error));
    EXPECT_NE(error.find("bad http address"), std::string::npos)
        << error;

    HttpServer too_big("70000");
    EXPECT_FALSE(too_big.start(&error));

    HttpServer bad_host("not.an.ip.addr:0");
    EXPECT_FALSE(bad_host.start(&error));
    EXPECT_NE(error.find("bad http host"), std::string::npos) << error;
}

TEST(Http, ServesConcurrentScrapes)
{
    HttpServer server("0");
    server.handle("/ping", [] {
        return HttpServer::Response{200, "text/plain; charset=utf-8",
                                    "pong\n"};
    });
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    constexpr int kClients = 8;
    std::vector<std::thread> clients;
    std::vector<int> statuses(kClients, 0);
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
        clients.emplace_back([&server, &statuses, i] {
            statuses[i] = httpGet(server.port(), "/ping").status;
        });
    }
    for (std::thread &client : clients)
        client.join();
    for (int i = 0; i < kClients; ++i)
        EXPECT_EQ(statuses[i], 200) << "client " << i;

    server.stop();
}

TEST(Http, IdlesAtTheFdLimitAndRecovers)
{
    // At its fd limit the server's accept fails while connections wait
    // in its backlog. It must not spin on the readable listen socket,
    // and it must serve again once the idle clients leave.
    HttpServer server("0");
    server.handle("/ping", [] {
        return HttpServer::Response{200, "text/plain; charset=utf-8",
                                    "pong\n"};
    });
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    const sockaddr_in addr = loopbackAddress(server.port());
    const auto *address = reinterpret_cast<const sockaddr *>(&addr);
    EXPECT_LT(test::cpuSecondsAtFdLimit(address, sizeof(addr)), 0.3)
        << "the server spins while out of fds";

    const auto start = std::chrono::steady_clock::now();
    const int fd = test::connectWithin(address, sizeof(addr),
                                       std::chrono::seconds(2));
    ASSERT_GE(fd, 0) << std::strerror(errno);
    const std::string reply = exchange(fd, "GET /ping HTTP/1.0\r\n\r\n");
    EXPECT_NE(reply.find("pong"), std::string::npos) << reply;
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(2));
    server.stop();
}

TEST(Http, ServiceEndpointsExposeTheQueue)
{
    ServiceOptions options;
    options.stateDir = freshDir("latte_http_endpoints_state");
    options.startPaused = true;
    SweepService service(options);

    std::string error;
    const std::uint64_t id =
        service.submit(tinySpec(), "scraper", 0, &error);
    ASSERT_NE(id, 0u) << error;

    HttpServer server("0");
    registerServiceEndpoints(server, service);
    ASSERT_TRUE(server.start(&error)) << error;

    // /metrics: Prometheus exposition with the queued job visible.
    HttpReply metrics = httpGet(server.port(), "/metrics");
    EXPECT_EQ(metrics.status, 200);
    EXPECT_NE(metrics.head.find("text/plain; version=0.0.4"),
              std::string::npos);
    EXPECT_EQ(sampleValue(metrics.body, "latte_service_queue_depth"),
              1.0);
    EXPECT_EQ(sampleValue(metrics.body,
                          "latte_service_jobs_submitted_total"),
              1.0);
    EXPECT_NE(metrics.body.find(
                  "latte_service_jobs{state=\"queued\"} 1"),
              std::string::npos);
    // The live gauges ride along; the retired sim-pool families do not.
    EXPECT_NE(metrics.body.find("latte_live_cells_in_flight"),
              std::string::npos);
    EXPECT_EQ(metrics.body.find("latte_sim_pool"), std::string::npos);

    // /healthz: machine-readable liveness summary.
    HttpReply healthz = httpGet(server.port(), "/healthz");
    EXPECT_EQ(healthz.status, 200);
    EXPECT_NE(healthz.head.find("application/json"), std::string::npos);
    const runner::Json health = runner::Json::parse(healthz.body, &error);
    ASSERT_TRUE(error.empty()) << error << "\n" << healthz.body;
    EXPECT_EQ(health.at("status").asString(), "ok");
    EXPECT_EQ(health.at("queue_depth").asUint(), 1u);
    EXPECT_EQ(health.at("running_job").asUint(), 0u);
    EXPECT_EQ(health.at("jobs").at("queued").asUint(), 1u);
    EXPECT_EQ(health.at("cells").at("executed").asUint(), 0u);

    // /jobs: the same snapshot the wire "jobs" verb returns.
    HttpReply jobs = httpGet(server.port(), "/jobs");
    EXPECT_EQ(jobs.status, 200);
    const runner::Json listing = runner::Json::parse(jobs.body, &error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_EQ(listing.asArray().size(), 1u);
    EXPECT_EQ(listing.asArray()[0].at("id").asUint(), id);
    EXPECT_EQ(listing.asArray()[0].at("state").asString(), "queued");

    server.stop();
}

TEST(Http, CountersStayMonotoneAcrossScrapes)
{
    ServiceOptions options;
    options.stateDir = freshDir("latte_http_monotone_state");
    options.cacheDir = freshDir("latte_http_monotone_cache");
    options.threads = 2;
    SweepService service(options);

    HttpServer server("0");
    registerServiceEndpoints(server, service);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    std::string job_error;
    const runner::SweepSpec spec = tinySpec();
    const std::uint64_t first =
        service.submit(spec, "scraper", 0, &job_error);
    ASSERT_NE(first, 0u) << job_error;
    JobInfo info;
    ASSERT_TRUE(service.waitJob(first, info));
    ASSERT_EQ(info.state, JobState::Done) << info.error;

    const std::string scrape1 = httpGet(server.port(), "/metrics").body;

    // A resubmit is served from cache — still a completed job, so every
    // lifetime counter moves forward (or holds), never backward.
    const std::uint64_t second =
        service.submit(spec, "scraper", 0, &job_error);
    ASSERT_NE(second, 0u) << job_error;
    ASSERT_TRUE(service.waitJob(second, info));
    ASSERT_EQ(info.state, JobState::Done) << info.error;

    const std::string scrape2 = httpGet(server.port(), "/metrics").body;

    const char *counters[] = {
        "latte_service_jobs_submitted_total",
        "latte_service_jobs_completed_total",
        "latte_service_cells_done_total",
        "latte_service_cells_executed_total",
        "latte_live_cells_finished_total",
    };
    for (const char *name : counters) {
        EXPECT_GE(sampleValue(scrape2, name), sampleValue(scrape1, name))
            << name;
    }
    EXPECT_EQ(sampleValue(scrape2, "latte_service_jobs_completed_total"),
              2.0);
    EXPECT_EQ(sampleValue(scrape2,
                          "latte_service_jobs_served_from_cache_total"),
              1.0);
    // The executed cells of the first job recorded wall times.
    EXPECT_GE(sampleValue(scrape2, "latte_service_cell_wall_ms_count"),
              static_cast<double>(spec.cellCount()));

    server.stop();
}

} // namespace
