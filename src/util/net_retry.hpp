/**
 * @file
 * EINTR-retry wrappers for the descriptor syscalls the daemon's
 * transport and the prior store's journal loop on. A stray signal
 * (SIGCHLD from a supervisor, a debugger attach, a timer) interrupts
 * read/write/accept with EINTR; without these wrappers that tears down
 * a perfectly healthy connection mid-job. Each wrapper retries while
 * errno == EINTR and otherwise behaves like the underlying call.
 *
 * POSIX-only, like the daemon (tools/qplacer_server).
 */

#ifndef QPLACER_UTIL_NET_RETRY_HPP
#define QPLACER_UTIL_NET_RETRY_HPP

#ifndef _WIN32

#include <cerrno>
#include <cstddef>

#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

namespace qplacer {

/** read() that retries on EINTR; same return/errno contract. */
inline ssize_t
retryRead(int fd, void *buf, std::size_t len)
{
    for (;;) {
        const ssize_t n = ::read(fd, buf, len);
        if (n >= 0 || errno != EINTR)
            return n;
    }
}

/** accept() that retries on EINTR; same return/errno contract. */
inline int
retryAccept(int fd, sockaddr *addr, socklen_t *addrlen)
{
    for (;;) {
        const int n = ::accept(fd, addr, addrlen);
        if (n >= 0 || errno != EINTR)
            return n;
    }
}

/**
 * write() all @p len bytes of @p data (retrying EINTR and short
 * writes); false once the write fails for real (a broken pipe or peer
 * among them: callers that write to peers ignore SIGPIPE).
 */
inline bool
writeAll(int fd, const char *data, std::size_t len)
{
    std::size_t done = 0;
    while (done < len) {
        const ssize_t n = ::write(fd, data + done, len - done);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        done += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace qplacer

#endif // !_WIN32

#endif // QPLACER_UTIL_NET_RETRY_HPP
