/**
 * @file
 * AcceptLoop: the connection loop latted's two servers share. One
 * thread poll()s a non-blocking listen socket and a stop pipe, reaps
 * finished connections before every accept, and serves each accepted
 * connection on a thread of its own; stop() shuts every connection
 * down and joins every thread.
 *
 * At the fd limit accept() fails while the listen socket stays
 * readable. The loop then polls the stop pipe alone for 100 ms before
 * it reaps and tries again, so a daemon out of fds neither spins nor
 * wedges: the fds of connections that end meanwhile are freed at the
 * next try.
 */

#ifndef LATTE_SERVICE_ACCEPT_LOOP_HH
#define LATTE_SERVICE_ACCEPT_LOOP_HH

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>

namespace latte::service
{

/** Write all of @p text, retrying short writes; false on a dead peer. */
bool writeAll(int fd, const std::string &text);

class AcceptLoop
{
  public:
    /**
     * One accepted connection. Shared: a subscriber's `send` can
     * outlive the serving thread, so it locks a weak_ptr per write,
     * and the fd closes with the last owner.
     */
    struct Connection
    {
        ~Connection();

        int fd = -1;
        /** Serializes the serving thread's writes with event sends. */
        std::mutex writeMutex;
        std::thread thread;
        std::atomic<bool> done{false};
    };

    /** Serves one connection, on its own thread, until it ends. */
    using Serve =
        std::function<void(const std::shared_ptr<Connection> &)>;

    /** @p threadName names the accept thread in log lines. */
    AcceptLoop(std::string threadName, Serve serve);
    ~AcceptLoop();

    AcceptLoop(const AcceptLoop &) = delete;
    AcceptLoop &operator=(const AcceptLoop &) = delete;

    /**
     * Bind a stream socket of @p family to @p addr, listen and start
     * the accept thread. False with @p error (naming @p where) on
     * failure.
     */
    bool start(int family, const sockaddr *addr, socklen_t addrLen,
               const std::string &where, std::string *error);

    /** Stop accepting, shut every connection down, join all threads. */
    void stop();

    bool running() const { return thread_.joinable(); }

    /** The listen socket (valid while running). */
    int listenFd() const { return listenFd_; }

  private:
    void run();

    std::string threadName_;
    Serve serve_;
    int listenFd_ = -1;
    int stopPipe_[2] = {-1, -1};
    /** Touched by the accept thread, and by stop() once it is joined. */
    std::vector<std::shared_ptr<Connection>> connections_;
    std::thread thread_;
};

} // namespace latte::service

#endif // LATTE_SERVICE_ACCEPT_LOOP_HH
