/**
 * @file
 * latte_client: CLI for the latted sweep job daemon.
 *
 *   latte_client submit --spec spec.json [--priority N] [--wait]
 *   latte_client status --job N          latte_client cancel --job N
 *   latte_client wait   --job N [--out result.json]
 *   latte_client jobs | stats | metrics | ping | shutdown
 *   latte_client run    --spec spec.json [sweep options]
 *   latte_client spec   --workloads KM,SS --policies Baseline,LATTE-CC
 *
 * `run` executes the spec in-process through the Sweep front door —
 * the reference path: the daemon's result for the same spec is
 * byte-identical to `run --json`, which the CI service smoke pins with
 * cmp(1). `spec` emits a canonical SweepSpec JSON skeleton to stdout.
 */

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.hh"
#include "runner/sweep.hh"

namespace
{

using latte::runner::Json;
using latte::runner::SweepSpec;

constexpr const char *kUsage =
    "usage: latte_client <command> [options]\n"
    "\n"
    "commands:\n"
    "  submit    submit a sweep job (--spec FILE [--priority N] [--wait"
    " [--out FILE]])\n"
    "  status    one job's state (--job N)\n"
    "  wait      block until a job finishes (--job N [--out FILE])\n"
    "  cancel    cancel a job (--job N)\n"
    "  jobs      list every job\n"
    "  stats     daemon counters\n"
    "  metrics   daemon Prometheus metrics\n"
    "  ping      liveness probe\n"
    "  shutdown  stop the daemon (queued jobs resume on restart)\n"
    "  run       execute a spec in-process (--spec FILE + sweep"
    " options)\n"
    "  spec      print a canonical SweepSpec JSON skeleton\n"
    "\n"
    "common options:\n"
    "  --socket PATH   daemon socket (default runs/latted/latted.sock)\n"
    "  --client NAME   client identity for quotas (default latte_client)"
    "\n";

/** One connected request/response exchange with the daemon. */
class DaemonConnection
{
  public:
    explicit DaemonConnection(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0)
            latte_fatal("latte_client: socket: {}",
                        std::strerror(errno));
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof(addr.sun_path))
            latte_fatal("latte_client: socket path too long: {}", path);
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0)
            latte_fatal("latte_client: cannot reach latted on {} ({})",
                        path, std::strerror(errno));
    }

    ~DaemonConnection()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    DaemonConnection(const DaemonConnection &) = delete;
    DaemonConnection &operator=(const DaemonConnection &) = delete;

    void
    send(const Json &request)
    {
        const std::string line = request.dump() + "\n";
        std::size_t off = 0;
        while (off < line.size()) {
            const ssize_t n = ::write(fd_, line.data() + off,
                                      line.size() - off);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                latte_fatal("latte_client: write: {}",
                            std::strerror(errno));
            }
            off += static_cast<std::size_t>(n);
        }
    }

    /** Next line from the daemon, parsed. Fatal on disconnect. */
    Json
    receive()
    {
        for (;;) {
            const std::size_t newline = buffer_.find('\n');
            if (newline != std::string::npos) {
                const std::string line = buffer_.substr(0, newline);
                buffer_.erase(0, newline + 1);
                std::string error;
                Json response = Json::parse(line, &error);
                if (!error.empty())
                    latte_fatal(
                        "latte_client: bad response line ({})", error);
                return response;
            }
            char chunk[4096];
            const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                latte_fatal("latte_client: daemon closed the "
                            "connection");
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    std::string buffer_;
};

/** Send @p request; return the response, exiting on protocol errors. */
Json
roundTrip(const std::string &socket_path, const Json &request)
{
    DaemonConnection connection(socket_path);
    connection.send(request);
    const Json response = connection.receive();
    if (response.type() != Json::Type::Object ||
        !response.contains("ok"))
        latte_fatal("latte_client: malformed response: {}",
                    response.dump());
    if (!response.at("ok").asBool()) {
        const Json &error = response.at("error");
        latte_fatal("latte_client: {} ({})",
                    error.at("message").asString(),
                    error.at("code").asString());
    }
    return response;
}

SweepSpec
loadSpec(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        latte_fatal("latte_client: cannot read spec file {}", path);
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    const Json json = Json::parse(text.str(), &error);
    if (!error.empty())
        latte_fatal("latte_client: {}: {}", path, error);
    SweepSpec spec;
    if (!SweepSpec::fromJson(json, spec, &error))
        latte_fatal("latte_client: {}: {}", path, error);
    return spec;
}

/** Copy the daemon's result document to @p out, byte for byte. */
void
copyResult(const std::string &result_path, const std::string &out_path)
{
    std::ifstream in(result_path, std::ios::binary);
    if (!in)
        latte_fatal("latte_client: cannot read result {}", result_path);
    std::ofstream out(out_path, std::ios::binary);
    if (!out)
        latte_fatal("latte_client: cannot write {}", out_path);
    out << in.rdbuf();
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream in(text);
    while (std::getline(in, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace latte;

    if (argc < 2 || std::string(argv[1]) == "--help") {
        std::fputs(kUsage, argc < 2 ? stderr : stdout);
        return argc < 2 ? EXIT_FAILURE : EXIT_SUCCESS;
    }
    const std::string command = argv[1];
    // Shift the subcommand out so the flag parsers see a plain argv.
    for (int i = 1; i + 1 < argc; ++i)
        argv[i] = argv[i + 1];
    --argc;
    argv[argc] = nullptr;

    std::string socket_path = "runs/latted/latted.sock";
    std::string client = "latte_client";
    std::string spec_path;
    std::string out_path;
    std::uint64_t job_id = 0;
    std::int64_t priority = 0;
    bool wait_for_result = false;
    std::string spec_name, workloads, policies, seeds;

    runner::ArgParser parser("latte_client " + command);
    parser.beginGroup("client options");
    parser.add("--socket", "", "PATH", "daemon socket path",
               [&](const std::string &v) { socket_path = v; });
    parser.add("--client", "", "NAME", "client identity for quotas",
               [&](const std::string &v) { client = v; });
    parser.add("--spec", "", "FILE", "SweepSpec JSON file",
               [&](const std::string &v) { spec_path = v; });
    parser.add("--job", "", "N", "job id",
               [&](const std::string &v) {
                   job_id = runner::parseFlag<std::uint64_t>("--job", v);
               });
    parser.add("--priority", "", "N", "job priority (higher first)",
               [&](const std::string &v) {
                   priority =
                       runner::parseFlag<std::int64_t>("--priority", v);
               });
    parser.add("--wait", "", "", "block until the job finishes",
               [&](const std::string &) { wait_for_result = true; });
    parser.add("--out", "", "FILE", "copy the result document here",
               [&](const std::string &v) { out_path = v; });
    parser.add("--name", "", "NAME", "spec name (spec command)",
               [&](const std::string &v) { spec_name = v; });
    parser.add("--workloads", "", "A,B", "workload list (spec command)",
               [&](const std::string &v) { workloads = v; });
    parser.add("--policies", "", "A,B", "policy list (spec command)",
               [&](const std::string &v) { policies = v; });
    parser.add("--seeds", "", "N,M", "seed list (spec command)",
               [&](const std::string &v) { seeds = v; });

    runner::SweepCliOptions sweep_cli;
    if (command == "run")
        parser.registerCommonFlags(sweep_cli);
    parser.parse(argc, argv);
    if (argc > 1)
        latte_fatal("latte_client: unknown argument '{}' (try --help)",
                    argv[1]);

    auto request = [&](const char *type) {
        Json::Object object;
        object["type"] = Json(type);
        object["client"] = Json(client);
        return object;
    };
    auto withJob = [&](const char *type) {
        if (job_id == 0)
            latte_fatal("latte_client: {} needs --job", type);
        Json::Object object = request(type);
        object["job"] = Json(job_id);
        return object;
    };
    auto printInfo = [](const Json &info) {
        std::cout << info.dump(2) << "\n";
    };
    auto finishWaited = [&](const Json &info) {
        // Exit nonzero unless the job completed, so scripts can gate
        // on the wait itself.
        const std::string &state = info.at("state").asString();
        if (state != "done")
            latte_fatal("latte_client: job {} ended {}{}",
                        info.at("id").asUint(), state,
                        info.at("error").asString().empty()
                            ? ""
                            : ": " + info.at("error").asString());
        if (!out_path.empty())
            copyResult(info.at("result_path").asString(), out_path);
    };

    if (command == "submit") {
        if (spec_path.empty())
            latte_fatal("latte_client: submit needs --spec");
        const SweepSpec spec = loadSpec(spec_path);
        Json::Object object = request("submit");
        object["spec"] = spec.toJson();
        object["priority"] = runner::encodeJson(priority);
        const Json response = roundTrip(socket_path, Json(object));
        job_id = response.at("job").asUint();
        std::cout << "job " << job_id << "\n";
        if (wait_for_result) {
            const Json waited =
                roundTrip(socket_path, Json(withJob("wait")));
            printInfo(waited.at("info"));
            finishWaited(waited.at("info"));
        }
        return EXIT_SUCCESS;
    }
    if (command == "status") {
        const Json response =
            roundTrip(socket_path, Json(withJob("status")));
        printInfo(response.at("info"));
        return EXIT_SUCCESS;
    }
    if (command == "wait") {
        const Json response =
            roundTrip(socket_path, Json(withJob("wait")));
        printInfo(response.at("info"));
        finishWaited(response.at("info"));
        return EXIT_SUCCESS;
    }
    if (command == "cancel") {
        roundTrip(socket_path, Json(withJob("cancel")));
        std::cout << "cancelled " << job_id << "\n";
        return EXIT_SUCCESS;
    }
    if (command == "jobs") {
        const Json response =
            roundTrip(socket_path, Json(request("jobs")));
        std::cout << response.at("jobs").dump(2) << "\n";
        return EXIT_SUCCESS;
    }
    if (command == "stats") {
        const Json response =
            roundTrip(socket_path, Json(request("stats")));
        std::cout << response.at("stats").dump(2) << "\n";
        return EXIT_SUCCESS;
    }
    if (command == "metrics") {
        const Json response =
            roundTrip(socket_path, Json(request("metrics")));
        std::cout << response.at("prometheus").asString();
        return EXIT_SUCCESS;
    }
    if (command == "ping") {
        roundTrip(socket_path, Json(request("ping")));
        std::cout << "pong\n";
        return EXIT_SUCCESS;
    }
    if (command == "shutdown") {
        roundTrip(socket_path, Json(request("shutdown")));
        std::cout << "shutdown requested\n";
        return EXIT_SUCCESS;
    }
    if (command == "run") {
        if (spec_path.empty())
            latte_fatal("latte_client: run needs --spec");
        const SweepSpec spec = loadSpec(spec_path);
        const std::string problem = spec.validate();
        if (!problem.empty())
            latte_fatal("latte_client: invalid spec: {}", problem);
        runner::Sweep sweep(sweep_cli);
        sweep.add(spec);
        sweep.run();
        return EXIT_SUCCESS;
    }
    if (command == "spec") {
        SweepSpec spec;
        spec.name = spec_name;
        spec.workloads = splitList(workloads);
        spec.policies = policies.empty()
                            ? std::vector<std::string>{"Baseline"}
                            : splitList(policies);
        for (const std::string &seed : splitList(seeds))
            spec.seeds.push_back(
                runner::parseFlag<std::uint64_t>("--seeds", seed));
        const std::string problem = spec.validate();
        if (!problem.empty())
            latte_fatal("latte_client: invalid spec: {}", problem);
        std::cout << spec.toJson().dump(2) << "\n";
        return EXIT_SUCCESS;
    }

    std::fputs(kUsage, stderr);
    latte_fatal("latte_client: unknown command '{}'", command);
}
