#include "http_server.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include <arpa/inet.h>
#include <netinet/in.h>

#include "common/logging.hh"
#include "sweep_service.hh"

namespace latte::service
{

namespace
{

const char *
statusReason(int status)
{
    switch (status) {
      case 200: return "OK";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      default: return "Error";
    }
}

/**
 * Split "host:port" / ":port" / "port" into its parts. False when the
 * port is missing or not a number.
 */
bool
splitAddress(const std::string &addr, std::string &host,
             std::uint16_t &port)
{
    host = "127.0.0.1";
    std::string portText = addr;
    const std::size_t colon = addr.rfind(':');
    if (colon != std::string::npos) {
        if (colon > 0)
            host = addr.substr(0, colon);
        portText = addr.substr(colon + 1);
    }
    if (portText.empty())
        return false;
    char *end = nullptr;
    const unsigned long value = std::strtoul(portText.c_str(), &end, 10);
    if (!end || *end != '\0' || value > 65535)
        return false;
    port = static_cast<std::uint16_t>(value);
    return true;
}

/** Cap on the request head we are willing to buffer. */
constexpr std::size_t kMaxRequestBytes = 8192;

} // namespace

HttpServer::HttpServer(std::string addr)
    : addr_(std::move(addr)),
      loop_("http", [this](const auto &connection) {
          setLogThreadName("http-c");
          serveConnection(connection->fd);
      })
{}

void
HttpServer::handle(std::string path, Handler handler)
{
    handlers_[std::move(path)] = std::move(handler);
}

bool
HttpServer::start(std::string *error)
{
    std::string host;
    std::uint16_t port = 0;
    if (!splitAddress(addr_, host, port)) {
        if (error)
            *error = "bad http address '" + addr_ +
                     "' (want [host:]port)";
        return false;
    }

    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        if (error)
            *error = "bad http host '" + host + "' (want an IPv4 address)";
        return false;
    }

    if (!loop_.start(AF_INET, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr), addr_, error))
        return false;

    // Resolve the actual port so ":0" callers can find the server.
    sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (::getsockname(loop_.listenFd(),
                      reinterpret_cast<sockaddr *>(&bound), &len) == 0)
        port_ = ntohs(bound.sin_port);
    else
        port_ = port;
    return true;
}

HttpServer::Response
HttpServer::dispatch(const std::string &method,
                     const std::string &path) const
{
    if (method != "GET") {
        return Response{405, "text/plain; charset=utf-8",
                        "method not allowed\n"};
    }
    const auto it = handlers_.find(path);
    if (it == handlers_.end())
        return Response{404, "text/plain; charset=utf-8", "not found\n"};
    return it->second();
}

void
HttpServer::serveConnection(int fd)
{
    // Read until the end of the request head; the body (there should
    // be none on a GET) is ignored.
    std::string buffer;
    char chunk[2048];
    while (buffer.find("\r\n\r\n") == std::string::npos &&
           buffer.find("\n\n") == std::string::npos &&
           buffer.size() < kMaxRequestBytes) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        buffer.append(chunk, static_cast<std::size_t>(n));
    }

    // Request line: METHOD SP PATH SP VERSION.
    Response response;
    const std::size_t eol = buffer.find_first_of("\r\n");
    std::istringstream line(buffer.substr(0, eol));
    std::string method, target, version;
    if (!(line >> method >> target >> version)) {
        response =
            Response{400, "text/plain; charset=utf-8", "bad request\n"};
    } else {
        // Exact-path routing; strip any query string.
        const std::size_t query = target.find('?');
        if (query != std::string::npos)
            target.erase(query);
        response = dispatch(method, target);
        latte_debug("http {} {} -> {}", method, target, response.status);
    }

    std::ostringstream head;
    head << "HTTP/1.0 " << response.status << " "
         << statusReason(response.status) << "\r\n"
         << "Content-Type: " << response.contentType << "\r\n"
         << "Content-Length: " << response.body.size() << "\r\n"
         << "Connection: close\r\n\r\n";
    writeAll(fd, head.str() + response.body);
    ::shutdown(fd, SHUT_WR);
}

void
registerServiceEndpoints(HttpServer &server, SweepService &service)
{
    server.handle("/metrics", [&service] {
        HttpServer::Response response;
        // The Prometheus exposition format version tag.
        response.contentType = "text/plain; version=0.0.4";
        response.body = service.metricsPrometheus();
        return response;
    });
    server.handle("/healthz", [&service] {
        HttpServer::Response response;
        response.contentType = "application/json";
        response.body = service.healthzJson().dump(2) + "\n";
        return response;
    });
    server.handle("/jobs", [&service] {
        HttpServer::Response response;
        response.contentType = "application/json";
        runner::Json::Array jobs;
        for (const JobInfo &info : service.jobs())
            jobs.push_back(info.toJson());
        response.body = runner::Json(std::move(jobs)).dump(2) + "\n";
        return response;
    });
}

} // namespace latte::service
