#include "socket_server.hh"

#include <cerrno>
#include <cstring>

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

} // namespace

SocketServer::SocketServer(RequestDispatcher &dispatcher,
                           std::string socketPath)
    : dispatcher_(dispatcher), socketPath_(std::move(socketPath)),
      loop_("accept", [this](const auto &connection) {
          serveConnection(connection);
      })
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

    return loop_.start(AF_UNIX, reinterpret_cast<sockaddr *>(&addr),
                       sizeof(addr), socketPath_, error);
}

void
SocketServer::stop()
{
    if (!loop_.running())
        return;
    loop_.stop();
    ::unlink(socketPath_.c_str());
}

void
SocketServer::serveConnection(
    const std::shared_ptr<AcceptLoop::Connection> &shared)
{
    setLogThreadName("ipc-c");
    AcceptLoop::Connection &connection = *shared;
    Session session;
    session.send = [weak = std::weak_ptr(shared)](const runner::Json &msg) {
        const std::shared_ptr<AcceptLoop::Connection> live = weak.lock();
        if (!live)
            return;
        std::lock_guard<std::mutex> write_lock(live->writeMutex);
        writeAll(live->fd, msg.dump() + "\n");
    };
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
                dispatcher_.handle(line, session);
            {
                std::lock_guard<std::mutex> write_lock(
                    connection.writeMutex);
                if (!writeAll(connection.fd, response.dump() + "\n"))
                    break;
            }
            // Post-write actions (shutdown) fire only after the
            // acknowledgement is on the wire.
            if (session.afterResponse) {
                const std::function<void()> hook =
                    std::move(session.afterResponse);
                session.afterResponse = nullptr;
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
    dispatcher_.closeSession(session);
}

} // namespace latte::service
