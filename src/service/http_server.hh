/**
 * @file
 * HttpServer: a deliberately minimal HTTP/1.0 server for latted's
 * observability surface — GET /metrics (Prometheus exposition),
 * GET /healthz and GET /jobs. It shares the SocketServer's AcceptLoop
 * (one short-lived thread per connection) on an AF_INET listener
 * bound to 127.0.0.1 by default.
 *
 * Scope is intentional: GET only, exact path match, Connection: close
 * on every response, no keep-alive, no TLS, no request bodies. This is
 * a scrape endpoint for Prometheus and curl, not a web framework;
 * anything mutating goes through the authenticated unix socket.
 */

#ifndef LATTE_SERVICE_HTTP_SERVER_HH
#define LATTE_SERVICE_HTTP_SERVER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "accept_loop.hh"

namespace latte::service
{

class SweepService;

class HttpServer
{
  public:
    struct Response
    {
        int status = 200;
        std::string contentType = "text/plain; charset=utf-8";
        std::string body;
    };

    /** Produces the response for one GET of the registered path. */
    using Handler = std::function<Response()>;

    /**
     * @p addr is "host:port", ":port" or "port"; the host defaults to
     * 127.0.0.1. Port 0 binds an ephemeral port — read it back with
     * port() after start().
     */
    explicit HttpServer(std::string addr);

    HttpServer(const HttpServer &) = delete;
    HttpServer &operator=(const HttpServer &) = delete;

    /** Register @p handler for exact-match GETs of @p path. */
    void handle(std::string path, Handler handler);

    /** Bind, listen and start the accept thread; false with @p error. */
    bool start(std::string *error);

    /** Stop accepting, close connections, join every thread. */
    void stop() { loop_.stop(); }

    /** The bound port (meaningful after start(); resolves ":0"). */
    std::uint16_t port() const { return port_; }

    const std::string &address() const { return addr_; }

  private:
    void serveConnection(int fd);
    Response dispatch(const std::string &method,
                      const std::string &path) const;

    std::string addr_;
    std::map<std::string, Handler> handlers_;
    std::uint16_t port_ = 0;
    AcceptLoop loop_;
};

/**
 * Wire the standard observability endpoints of @p service onto
 * @p server: /metrics (Prometheus exposition including live cell
 * gauges), /healthz (JSON liveness summary)
 * and /jobs (JSON job list, the HTTP mirror of the dispatcher's
 * "jobs" verb). Shared by latted and the tests so both serve
 * byte-identical content. @p service must outlive @p server.
 */
void registerServiceEndpoints(HttpServer &server, SweepService &service);

} // namespace latte::service

#endif // LATTE_SERVICE_HTTP_SERVER_HH
