/**
 * @file
 * RequestDispatcher: the latted wire protocol, independent of any
 * socket. Each request is one JSON object on one line; each response is
 * one JSON object on one line; subscribed sessions additionally receive
 * event objects interleaved with responses. SocketServer feeds it lines
 * from AF_UNIX connections; the tests feed it lines directly, so the
 * whole protocol is covered without a socket in sight.
 *
 * See docs/protocol.md for the request/response/event schemas, the
 * error codes and the quota semantics.
 */

#ifndef LATTE_SERVICE_DISPATCHER_HH
#define LATTE_SERVICE_DISPATCHER_HH

#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "sweep_service.hh"

namespace latte::service
{

/**
 * One client connection's protocol state. The server owns a Session per
 * connection; `send` must be safe to call from any thread (events
 * arrive from scheduler/worker threads while responses are written by
 * the connection's reader thread).
 */
struct Session
{
    /** Client identity for quotas; defaults until a request names one. */
    std::string client = "anon";
    /** Write one JSON object as a line to the peer. */
    std::function<void(const runner::Json &)> send;
    /** Listener tokens to detach when the session closes. */
    std::vector<std::uint64_t> listeners;
    /**
     * Deferred action the transport must invoke once the response line
     * is on the wire. "shutdown" parks its hook here so the daemon
     * cannot tear the connection down under its own acknowledgement.
     */
    std::function<void()> afterResponse;
};

/** {"ok":false,"error":{"code":...,"message":...}} (+ @p request's id). */
runner::Json errorResponse(const std::string &code,
                           const std::string &message,
                           const runner::Json &request = runner::Json());

class RequestDispatcher
{
  public:
    explicit RequestDispatcher(SweepService &service)
        : service_(service)
    {}

    /**
     * Handle one request line and return the response object. Blocking
     * requests (wait) block the calling thread — each connection has
     * its own reader thread, so only that client waits.
     */
    runner::Json handle(const std::string &line, Session &session);

    /** Detach the session's event subscriptions (connection closed). */
    void closeSession(Session &session);

    /**
     * Hook invoked after a "shutdown" request is acknowledged. latted
     * uses it to stop the accept loop and exit; defaults to a no-op so
     * in-process tests can drive "shutdown" safely.
     */
    void onShutdown(std::function<void()> hook)
    {
        shutdown_ = std::move(hook);
    }

    SweepService &service() { return service_; }

  private:
    SweepService &service_;
    std::function<void()> shutdown_;
};

} // namespace latte::service

#endif // LATTE_SERVICE_DISPATCHER_HH
