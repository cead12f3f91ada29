/**
 * @file
 * The daemon's Unix-socket transport end to end: starts the built
 * qplacer_server --socket on a scratch path and talks to it over
 * AF_UNIX. One connection sends a terminated ping, then an unterminated
 * ping and a write shutdown, and must get hello and two pongs (the
 * peer's EOF ends the last request, as on stdin); a second connection
 * sends shutdown and must get bye, after which the daemon exits 0.
 * POSIX only; ctest -L service.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "scratch_path.hpp"
#include "util/net_retry.hpp"

extern char **environ;

namespace qplacer {
namespace {

/** A daemon that died mid-test fails the send, not the test process. */
#ifdef MSG_NOSIGNAL
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

/** A qplacer_server child process, killed if the test leaves early. */
class Daemon
{
  public:
    explicit Daemon(const std::string &socket_path)
    {
        std::vector<std::string> args = {QPLACER_SERVER_PATH, "--socket",
                                         socket_path, "--workers", "1",
                                         "--quiet"};
        std::vector<char *> argv;
        for (std::string &arg : args)
            argv.push_back(arg.data());
        argv.push_back(nullptr);
        if (::posix_spawn(&pid_, argv[0], nullptr, nullptr, argv.data(),
                          environ) != 0)
            pid_ = -1;
    }

    ~Daemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    bool started() const { return pid_ > 0; }

    /** Waits for the daemon to exit; its exit status, or -1. */
    int
    wait()
    {
        int status = 0;
        const pid_t pid = pid_;
        pid_ = -1;
        if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status))
            return -1;
        return WEXITSTATUS(status);
    }

  private:
    pid_t pid_ = -1;
};

/** Connects to @p path, retrying while the daemon starts; -1 on failure. */
int
connectTo(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    for (int attempt = 0; attempt < 1000; ++attempt) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return -1;
        if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) == 0) {
            // A hung daemon fails the test instead of stalling it.
            const timeval timeout{60, 0};
            ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout));
            return fd;
        }
        ::close(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;
}

/**
 * Sends @p requests on @p fd, shuts down its write side, and returns
 * every response line up to the daemon's close.
 */
std::vector<std::string>
exchange(int fd, const std::string &requests)
{
    EXPECT_TRUE(sendAll(fd, requests.data(), requests.size(), kSendFlags));
    ::shutdown(fd, SHUT_WR);
    std::string received;
    char chunk[4096];
    ssize_t n;
    while ((n = retryRecv(fd, chunk, sizeof(chunk), 0)) > 0)
        received.append(chunk, static_cast<std::size_t>(n));
    EXPECT_EQ(n, 0) << "recv failed: " << std::strerror(errno);
    ::close(fd);

    std::vector<std::string> lines;
    std::size_t begin = 0;
    std::size_t eol;
    while ((eol = received.find('\n', begin)) != std::string::npos) {
        lines.push_back(received.substr(begin, eol - begin));
        begin = eol + 1;
    }
    EXPECT_EQ(begin, received.size()) << "unterminated response";
    return lines;
}

bool
hasType(const std::string &line, const std::string &type)
{
    return line.find("\"type\":\"" + type + "\"") != std::string::npos;
}

TEST(SocketTransport, AnswersAnUnterminatedLastRequest)
{
    const ScratchPath socket_path(".sock");
    Daemon daemon(socket_path.path);
    ASSERT_TRUE(daemon.started());

    const int first = connectTo(socket_path.path);
    ASSERT_GE(first, 0) << "could not connect to " << socket_path.path;
    const std::vector<std::string> pings =
        exchange(first, "{\"type\":\"ping\"}\n{\"type\":\"ping\"}");
    ASSERT_EQ(pings.size(), 3u);
    EXPECT_TRUE(hasType(pings[0], "hello")) << pings[0];
    EXPECT_TRUE(hasType(pings[1], "pong")) << pings[1];
    EXPECT_TRUE(hasType(pings[2], "pong")) << pings[2];

    const int second = connectTo(socket_path.path);
    ASSERT_GE(second, 0);
    const std::vector<std::string> bye =
        exchange(second, "{\"type\":\"shutdown\"}\n");
    ASSERT_EQ(bye.size(), 2u);
    EXPECT_TRUE(hasType(bye[0], "hello")) << bye[0];
    EXPECT_TRUE(hasType(bye[1], "bye")) << bye[1];

    EXPECT_EQ(daemon.wait(), 0);
}

} // namespace
} // namespace qplacer
