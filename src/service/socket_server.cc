#include "socket_server.hh"

#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.hh"

namespace latte::service
{

namespace
{

bool
fillAddress(const std::string &path, sockaddr_un &addr,
            std::string *error)
{
    if (path.size() >= sizeof(addr.sun_path)) {
        if (error)
            *error = "socket path too long: " + path;
        return false;
    }
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    return true;
}

/** Write all of @p text, retrying short writes; false on a dead peer. */
bool
writeAll(int fd, const std::string &text)
{
    std::size_t off = 0;
    while (off < text.size()) {
        const ssize_t n =
            ::send(fd, text.data() + off, text.size() - off,
                   MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

SocketServer::Connection::~Connection()
{
    if (fd >= 0)
        ::close(fd);
}

SocketServer::SocketServer(RequestDispatcher &dispatcher,
                           std::string socketPath)
    : dispatcher_(dispatcher), socketPath_(std::move(socketPath))
{}

SocketServer::~SocketServer()
{
    stop();
}

bool
SocketServer::start(std::string *error)
{
    sockaddr_un addr;
    if (!fillAddress(socketPath_, addr, error))
        return false;

    // A leftover socket file from a SIGKILLed daemon would make bind
    // fail forever; probe it first and only remove it when nobody
    // answers.
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
        if (::connect(probe, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0) {
            ::close(probe);
            if (error)
                *error = "another daemon is live on " + socketPath_;
            return false;
        }
        ::close(probe);
        ::unlink(socketPath_.c_str());
    }

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        if (error)
            *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd_, 16) != 0) {
        if (error)
            *error = std::string("bind/listen ") + socketPath_ + ": " +
                     std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    if (::pipe(stopPipe_) != 0) {
        if (error)
            *error = std::string("pipe: ") + std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }

    running_ = true;
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
SocketServer::stop()
{
    if (!running_)
        return;
    running_ = false;
    // Wake the accept loop; it closes the listen socket and every
    // connection, which in turn unblocks the reader threads.
    const char byte = 'x';
    [[maybe_unused]] const ssize_t n =
        ::write(stopPipe_[1], &byte, 1);
    if (acceptThread_.joinable())
        acceptThread_.join();

    std::vector<std::shared_ptr<Connection>> connections;
    {
        std::lock_guard<std::mutex> lock(connectionsMutex_);
        connections.swap(connections_);
    }
    for (const auto &connection : connections) {
        ::shutdown(connection->fd, SHUT_RDWR);
        if (connection->reader.joinable())
            connection->reader.join();
    }

    ::close(stopPipe_[0]);
    ::close(stopPipe_[1]);
    stopPipe_[0] = stopPipe_[1] = -1;
    ::close(listenFd_);
    listenFd_ = -1;
    ::unlink(socketPath_.c_str());
}

void
SocketServer::acceptLoop()
{
    setLogThreadName("accept");
    for (;;) {
        pollfd fds[2] = {
            {listenFd_, POLLIN, 0},
            {stopPipe_[0], POLLIN, 0},
        };
        if (::poll(fds, 2, -1) < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        if (fds[1].revents != 0)
            return; // stop() requested
        if ((fds[0].revents & POLLIN) == 0)
            continue;

        std::lock_guard<std::mutex> lock(connectionsMutex_);
        // Reap finished connections first, so a long-lived daemon
        // keeps no fd or thread per client it ever served.
        std::erase_if(connections_, [](const auto &connection) {
            if (!connection->done.load(std::memory_order_acquire))
                return false;
            connection->reader.join();
            return true;
        });

        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;

        auto connection = std::make_shared<Connection>();
        connection->fd = fd;
        connection->session.send =
            [weak = std::weak_ptr<Connection>(connection)](
                const runner::Json &msg) {
                const std::shared_ptr<Connection> live = weak.lock();
                if (!live)
                    return;
                std::lock_guard<std::mutex> write_lock(live->writeMutex);
                writeAll(live->fd, msg.dump() + "\n");
            };
        connection->reader = std::thread([this, &served = *connection] {
            serveConnection(served);
            served.done.store(true, std::memory_order_release);
        });
        connections_.push_back(std::move(connection));
    }
}

void
SocketServer::serveConnection(Connection &connection)
{
    setLogThreadName("ipc-c");
    std::string buffer;
    char chunk[4096];
    bool too_long = false;
    while (!too_long) {
        const ssize_t n =
            ::recv(connection.fd, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break; // peer closed (or stop() shut the socket down)
        buffer.append(chunk, static_cast<std::size_t>(n));

        std::size_t start = 0;
        for (;;) {
            const std::size_t newline = buffer.find('\n', start);
            if (newline == std::string::npos)
                break;
            if (newline - start > kMaxLineBytes) {
                too_long = true;
                break;
            }
            const std::string line =
                buffer.substr(start, newline - start);
            start = newline + 1;
            if (line.empty())
                continue;
            const runner::Json response =
                dispatcher_.handle(line, connection.session);
            {
                std::lock_guard<std::mutex> write_lock(
                    connection.writeMutex);
                if (!writeAll(connection.fd, response.dump() + "\n"))
                    break;
            }
            // Post-write actions (shutdown) fire only after the
            // acknowledgement is on the wire.
            if (connection.session.afterResponse) {
                const std::function<void()> hook =
                    std::move(connection.session.afterResponse);
                connection.session.afterResponse = nullptr;
                hook();
            }
        }
        buffer.erase(0, start);
        too_long = too_long || buffer.size() > kMaxLineBytes;
    }
    if (too_long) {
        // The rest of the line cannot be framed without buffering it:
        // answer once and close the connection.
        latte_warn("dropping a connection that sent a line over {} bytes",
                   kMaxLineBytes);
        {
            std::lock_guard<std::mutex> write_lock(connection.writeMutex);
            writeAll(connection.fd,
                     errorResponse("line_too_long",
                                   strfmt("request line exceeds {} bytes",
                                          kMaxLineBytes))
                             .dump() +
                         "\n");
        }
        ::shutdown(connection.fd, SHUT_RDWR);
    }
    dispatcher_.closeSession(connection.session);
}

} // namespace latte::service
