#include "accept_loop.hh"

#include <cerrno>
#include <cstring>

#include <poll.h>
#include <unistd.h>

#include "common/logging.hh"

namespace latte::service
{

namespace
{

/** How long an accept that ran out of fds waits before retrying. */
constexpr int kBackoffMs = 100;

} // namespace

bool
writeAll(int fd, const std::string &text)
{
    std::size_t off = 0;
    while (off < text.size()) {
        const ssize_t n = ::send(fd, text.data() + off,
                                 text.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

AcceptLoop::Connection::~Connection()
{
    if (fd >= 0)
        ::close(fd);
}

AcceptLoop::AcceptLoop(std::string threadName, Serve serve)
    : threadName_(std::move(threadName)), serve_(std::move(serve))
{}

AcceptLoop::~AcceptLoop()
{
    stop();
}

bool
AcceptLoop::start(int family, const sockaddr *addr, socklen_t addrLen,
                  const std::string &where, std::string *error)
{
    // Non-blocking, so a retry after a wake-up whose peer already left
    // returns EAGAIN instead of blocking stop().
    listenFd_ = ::socket(family, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (listenFd_ < 0) {
        if (error)
            *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    // Lets a restarted daemon rebind a TCP port still in TIME_WAIT.
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    std::string failed;
    if (::bind(listenFd_, addr, addrLen) != 0 ||
        ::listen(listenFd_, 16) != 0)
        failed = "bind/listen " + where + ": ";
    else if (::pipe(stopPipe_) != 0)
        failed = "pipe: ";
    if (!failed.empty()) {
        if (error)
            *error = failed + std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    thread_ = std::thread([this] { run(); });
    return true;
}

void
AcceptLoop::stop()
{
    if (!running())
        return;
    const char byte = 'x';
    [[maybe_unused]] const ssize_t n = ::write(stopPipe_[1], &byte, 1);
    thread_.join();

    // Shutting a connection down unblocks its serving thread.
    for (const auto &connection : connections_) {
        ::shutdown(connection->fd, SHUT_RDWR);
        connection->thread.join();
    }
    connections_.clear();

    ::close(stopPipe_[0]);
    ::close(stopPipe_[1]);
    stopPipe_[0] = stopPipe_[1] = -1;
    ::close(listenFd_);
    listenFd_ = -1;
}

void
AcceptLoop::run()
{
    setLogThreadName(threadName_);
    bool out_of_fds = false;
    for (;;) {
        pollfd fds[2] = {
            {stopPipe_[0], POLLIN, 0},
            {listenFd_, POLLIN, 0},
        };
        // Out of fds, the listen socket stays readable: wait on the
        // stop pipe alone for a while instead of spinning on it.
        if (::poll(fds, out_of_fds ? 1 : 2,
                   out_of_fds ? kBackoffMs : -1) < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        if (fds[0].revents != 0)
            return; // stop() requested

        // Reap finished connections first, so a long-lived daemon
        // keeps no fd or thread per client it ever served, and the
        // accept below can use the fds they held.
        std::erase_if(connections_, [](const auto &connection) {
            if (!connection->done.load(std::memory_order_acquire))
                return false;
            connection->thread.join();
            return true;
        });

        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            out_of_fds = errno == EMFILE || errno == ENFILE ||
                         errno == ENOBUFS || errno == ENOMEM;
            continue;
        }
        out_of_fds = false;
        auto connection = std::make_shared<Connection>();
        connection->fd = fd;
        connection->thread = std::thread([this, connection] {
            serve_(connection);
            connection->done.store(true, std::memory_order_release);
        });
        connections_.push_back(std::move(connection));
    }
}

} // namespace latte::service
