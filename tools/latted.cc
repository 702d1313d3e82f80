/**
 * @file
 * latted: the persistent sweep job daemon. Accepts SweepSpec jobs over
 * line-delimited JSON on a local AF_UNIX socket, executes them on the
 * ExperimentRunner thread pool, journals every job so a killed daemon
 * resumes its queue on restart, and streams progress events to
 * subscribed clients. latte_client is the matching CLI; see
 * docs/protocol.md for the wire format.
 *
 *   latted --state-dir runs/latted --cache-dir runs/cache -j 8
 */

#include <csignal>
#include <cstdlib>
#include <fstream>

#include <condition_variable>
#include <mutex>

#include "common/logging.hh"
#include "runner/arg_parse.hh"
#include "service/http_server.hh"
#include "service/socket_server.hh"

namespace
{

/** Blocks main() until a shutdown request or SIGINT/SIGTERM arrives. */
struct ShutdownLatch
{
    std::mutex mutex;
    std::condition_variable cv;
    bool requested = false;

    void
    request()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            requested = true;
        }
        cv.notify_all();
    }

    void
    wait()
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return requested; });
    }
};

ShutdownLatch *g_latch = nullptr;

void
onSignal(int)
{
    if (g_latch)
        g_latch->request();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace latte;

    service::ServiceOptions options;
    std::string socket_path;
    std::string metrics_out;
    std::string http_addr;

    // latted takes its own flag set, not the full sweep CLI: a daemon
    // has no --json/--trace-out of its own — those belong to jobs.
    runner::ArgParser parser("latted");
    parser.beginGroup("daemon options");
    parser.add("--socket", "", "PATH",
               "AF_UNIX socket path (default <state-dir>/latted.sock)",
               [&](const std::string &v) { socket_path = v; });
    parser.add("--state-dir", "", "DIR",
               "job journal + results directory (default runs/latted)",
               [&](const std::string &v) { options.stateDir = v; });
    parser.add("--cache-dir", "", "DIR",
               "result cache shared with direct sweep runs",
               [&](const std::string &v) { options.cacheDir = v; });
    parser.add("--jobs", "-j", "N", "worker threads per job (0 = all cores)",
               [&](const std::string &v) {
                   options.threads =
                       runner::parseFlag<unsigned>("--jobs", v);
               });
    parser.add("--quota", "", "N",
               "live jobs allowed per client (default 8)",
               [&](const std::string &v) {
                   options.clientQuota =
                       runner::parseFlag<std::size_t>("--quota", v);
               });
    parser.add("--max-queue", "", "N",
               "queued-job cap across clients (default 256)",
               [&](const std::string &v) {
                   options.maxQueue =
                       runner::parseFlag<std::size_t>("--max-queue", v);
               });
    parser.add("--metrics-out", "", "FILE",
               "write a Prometheus metrics snapshot here on exit",
               [&](const std::string &v) { metrics_out = v; });
    parser.add("--progress", "", "0|1",
               "runner progress lines on stderr (default 0)",
               [&](const std::string &v) {
                   options.progress = v != "0";
               });
    parser.add("--http-addr", "", "[HOST:]PORT",
               "serve GET /metrics, /healthz and /jobs over HTTP "
               "(127.0.0.1 unless HOST is given; off by default)",
               [&](const std::string &v) { http_addr = v; });
    parser.add("--log-level", "", "LEVEL",
               "stderr log threshold: error|warn|info|debug|trace "
               "(default info, or LATTE_LOG_LEVEL)",
               [&](const std::string &v) {
                   LogLevel level;
                   if (!logLevelFromName(v, level))
                       latte_fatal("latted: unknown log level '{}'", v);
                   setLogLevel(level);
               });
    parser.add("--log-json", "", nullptr,
               "emit log lines as JSON records (one object per line)",
               [&](const std::string &) { setLogJson(true); });
    parser.parse(argc, argv);
    if (argc > 1)
        latte_fatal("latted: unknown argument '{}' (try --help)",
                    argv[1]);

    if (options.stateDir.empty())
        options.stateDir = "runs/latted";
    if (socket_path.empty())
        socket_path = options.stateDir + "/latted.sock";

    service::SweepService sweep_service(options);
    service::RequestDispatcher dispatcher(sweep_service);
    service::SocketServer server(dispatcher, socket_path);

    ShutdownLatch latch;
    g_latch = &latch;
    dispatcher.onShutdown([&] { latch.request(); });
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    std::string error;
    if (!server.start(&error))
        latte_fatal("latted: {}", error);

    service::HttpServer http(http_addr.empty() ? "0" : http_addr);
    if (!http_addr.empty()) {
        service::registerServiceEndpoints(http, sweep_service);
        if (!http.start(&error))
            latte_fatal("latted: {}", error);
    }

    // The resolved configuration, logged once at startup so a journal
    // of the daemon's life starts with what it was actually running.
    const service::ServiceCounters startup = sweep_service.counters();
    latte_inform("latted: serving on {} (state {}, {} job{} recovered)",
                 socket_path, options.stateDir, startup.recovered,
                 startup.recovered == 1 ? "" : "s");
    latte_inform("latted: config: cache-dir='{}' threads={} "
                 "max-queue={} client-quota={} progress={}",
                 options.cacheDir, options.threads, options.maxQueue,
                 options.clientQuota, options.progress ? 1 : 0);
    if (!http_addr.empty())
        latte_inform("latted: http on '{}' port {} "
                     "(/metrics, /healthz, /jobs)",
                     http_addr, http.port());

    latch.wait();

    latte_inform("latted: shutting down");
    // Order matters: stop the scrape surface, wake blocked wait
    // requests, then tear down the socket (joins reader threads),
    // then destroy the service.
    http.stop();
    sweep_service.shutdown();
    server.stop();

    if (!metrics_out.empty()) {
        std::ofstream out(metrics_out);
        if (out)
            out << sweep_service.metricsPrometheus();
        else
            latte_warn("latted: cannot write {}", metrics_out);
    }
    return EXIT_SUCCESS;
}
