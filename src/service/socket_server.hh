/**
 * @file
 * SocketServer: binds a RequestDispatcher to an AF_UNIX stream socket
 * speaking line-delimited JSON, served by an AcceptLoop. One reader
 * thread per connection; event subscriptions write to the same
 * connection under a per-connection write mutex, so responses and
 * events never interleave bytes.
 *
 * Local-socket-only by design: latted is a per-user/per-machine job
 * server, and the filesystem socket inherits the directory's
 * permissions as its access control.
 */

#ifndef LATTE_SERVICE_SOCKET_SERVER_HH
#define LATTE_SERVICE_SOCKET_SERVER_HH

#include <memory>
#include <string>

#include "accept_loop.hh"
#include "dispatcher.hh"

namespace latte::service
{

class SocketServer
{
  public:
    /**
     * Longest request line a connection may send, far above any submit
     * spec. A longer line is answered with `line_too_long` and the
     * connection is closed, so no client can grow the daemon's buffers
     * without bound.
     */
    static constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

    SocketServer(RequestDispatcher &dispatcher, std::string socketPath);
    ~SocketServer();

    SocketServer(const SocketServer &) = delete;
    SocketServer &operator=(const SocketServer &) = delete;

    /**
     * Bind, listen and start the accept thread. False with @p error on
     * bind failure (e.g. a live daemon already owns the socket). A
     * stale socket file from a dead daemon is detected (connect fails)
     * and replaced.
     */
    bool start(std::string *error);

    /** Stop accepting, close every connection and join all threads. */
    void stop();

    const std::string &socketPath() const { return socketPath_; }

  private:
    void serveConnection(
        const std::shared_ptr<AcceptLoop::Connection> &connection);

    RequestDispatcher &dispatcher_;
    std::string socketPath_;
    AcceptLoop loop_;
};

} // namespace latte::service

#endif // LATTE_SERVICE_SOCKET_SERVER_HH
