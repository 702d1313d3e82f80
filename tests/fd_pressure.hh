/**
 * @file
 * Helpers for tests that drive a server to its fd limit inside the
 * test process: lower the soft RLIMIT_NOFILE, hold idle connections
 * until the server can accept no more, measure the CPU the process
 * burns meanwhile, and connect with a bounded wait afterwards.
 */

#ifndef LATTE_TESTS_FD_PRESSURE_HH
#define LATTE_TESTS_FD_PRESSURE_HH

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

namespace latte::test
{

/** Open file descriptors of this process. */
inline std::size_t
openFdCount()
{
    std::size_t count = 0;
    for ([[maybe_unused]] const auto &entry :
         std::filesystem::directory_iterator("/proc/self/fd"))
        ++count;
    return count;
}

/** User plus system CPU seconds this process has used so far. */
inline double
processCpuSeconds()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) / 1e6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/**
 * CPU seconds this process uses over one second while a server at
 * @p addr sits at its fd limit with idle connections waiting in its
 * backlog. The soft RLIMIT_NOFILE drops to open fds + 24, and every
 * fd it leaves becomes a client socket first, so the server has none
 * to accept with; the sockets then connect until one stalls on the
 * full backlog. The server takes no fd meanwhile, so nothing in it (a
 * sanitizer's check included) runs out of fds except accept(). The
 * limit is restored before the clients close, so the connection
 * threads that start then find fds too.
 */
inline double
cpuSecondsAtFdLimit(const sockaddr *addr, socklen_t addrLen)
{
    rlimit saved{};
    ::getrlimit(RLIMIT_NOFILE, &saved);
    rlimit lowered = saved;
    lowered.rlim_cur = openFdCount() + 24;
    EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0)
        << std::strerror(errno);

    std::vector<int> idle;
    for (int fd; idle.size() < 64 &&
                 (fd = ::socket(addr->sa_family,
                                SOCK_STREAM | SOCK_NONBLOCK, 0)) >= 0;)
        idle.push_back(fd);
    EXPECT_EQ(errno, EMFILE) << "the fd limit was never reached";
    for (const int fd : idle) {
        if (::connect(fd, addr, addrLen) == 0)
            continue;
        pollfd connected{fd, POLLOUT, 0};
        if (errno != EINPROGRESS || ::poll(&connected, 1, 200) != 1)
            break; // the connect stalls: the backlog is full
    }
    const double before = processCpuSeconds();
    std::this_thread::sleep_for(std::chrono::seconds(1));
    const double used = processCpuSeconds() - before;

    ::setrlimit(RLIMIT_NOFILE, &saved);
    for (const int fd : idle)
        ::close(fd);
    return used;
}

/**
 * A blocking socket connected to @p addr within @p budget, or -1. A
 * connect that meets a full backlog stalls (a dropped TCP SYN is sent
 * again only after a second), so each try, and every later send or
 * receive on the socket, gives up after 200 ms.
 */
inline int
connectWithin(const sockaddr *addr, socklen_t addrLen,
              std::chrono::milliseconds budget)
{
    const auto deadline = std::chrono::steady_clock::now() + budget;
    do {
        const int fd = ::socket(addr->sa_family, SOCK_STREAM, 0);
        if (fd < 0)
            return -1;
        const timeval limit{0, 200'000};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof(limit));
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &limit, sizeof(limit));
        if (::connect(fd, addr, addrLen) == 0)
            return fd;
        ::close(fd);
    } while (std::chrono::steady_clock::now() < deadline);
    return -1;
}

} // namespace latte::test

#endif // LATTE_TESTS_FD_PRESSURE_HH
