/**
 * @file
 * The daemon's transports end to end: starts the built qplacer_server
 * (with --socket on a scratch path, or on pipes for stdin/stdout) and
 * talks to it. A connection that sends a terminated ping, then an
 * unterminated ping and a write shutdown, must get hello and two pongs
 * (the peer's EOF ends the last request); one that sends shutdown must
 * get bye, after which the daemon exits 0. Under --max-line-bytes 200
 * an oversized line, whole or arriving as a partial line past the
 * bound, gets exactly one "line_too_long" and the session keeps
 * serving; the same request bytes give the same responses on stdin as
 * on a socket. POSIX only; ctest -L service.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
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

/**
 * A qplacer_server child process (--workers 1 --quiet plus the given
 * args), killed if the test leaves early. Its stdin and stdout are
 * pipes: write requests to takeToDaemon(), read responses from
 * takeFromDaemon().
 */
class Daemon
{
  public:
    explicit Daemon(const std::vector<std::string> &extra_args)
    {
        std::vector<std::string> args = {QPLACER_SERVER_PATH, "--workers",
                                         "1", "--quiet"};
        args.insert(args.end(), extra_args.begin(), extra_args.end());
        std::vector<char *> argv;
        for (std::string &arg : args)
            argv.push_back(arg.data());
        argv.push_back(nullptr);

        // Close-on-exec ends; the child gets its two as stdin/stdout.
        int in[2];
        int out[2];
        if (::pipe2(in, O_CLOEXEC) != 0)
            return;
        if (::pipe2(out, O_CLOEXEC) != 0) {
            ::close(in[0]);
            ::close(in[1]);
            return;
        }
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_adddup2(&actions, in[0], STDIN_FILENO);
        posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
        if (::posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(),
                          environ) != 0)
            pid_ = -1;
        posix_spawn_file_actions_destroy(&actions);
        ::close(in[0]);
        ::close(out[1]);
        toDaemon_ = in[1];
        fromDaemon_ = out[0];
    }

    ~Daemon()
    {
        if (toDaemon_ >= 0)
            ::close(toDaemon_);
        if (fromDaemon_ >= 0)
            ::close(fromDaemon_);
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    bool started() const { return pid_ > 0; }

    /** The daemon's stdin; the caller takes ownership. */
    int
    takeToDaemon()
    {
        const int fd = toDaemon_;
        toDaemon_ = -1;
        return fd;
    }

    /** The daemon's stdout; the caller takes ownership. */
    int
    takeFromDaemon()
    {
        const int fd = fromDaemon_;
        fromDaemon_ = -1;
        return fd;
    }

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
    int toDaemon_ = -1;
    int fromDaemon_ = -1;
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

/** Sends all of @p bytes on @p fd. */
void
sendBytes(int fd, const std::string &bytes)
{
    // A daemon that died mid-test fails the write, not the test process.
    ::signal(SIGPIPE, SIG_IGN);
    EXPECT_TRUE(writeAll(fd, bytes.data(), bytes.size()))
        << "write failed: " << std::strerror(errno);
}

/** Splits @p received into its lines; every line must be terminated. */
std::vector<std::string>
splitLines(const std::string &received)
{
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

/** Reads @p fd until @p count response lines arrived (or EOF). */
std::vector<std::string>
readLines(int fd, std::size_t count)
{
    std::string received;
    char c;
    std::size_t lines = 0;
    while (lines < count && retryRead(fd, &c, 1) == 1) {
        received.push_back(c);
        if (c == '\n')
            ++lines;
    }
    return splitLines(received);
}

/**
 * Sends @p requests to @p to, ends the input (a socket's write side
 * is shut down, a pipe closed), and returns every response line read
 * off @p from up to the daemon's close. Both fds are closed.
 */
std::vector<std::string>
roundTrip(int to, int from, const std::string &requests)
{
    sendBytes(to, requests);
    if (to == from)
        ::shutdown(to, SHUT_WR);
    else
        ::close(to);
    std::string received;
    char chunk[4096];
    ssize_t n;
    while ((n = retryRead(from, chunk, sizeof(chunk))) > 0)
        received.append(chunk, static_cast<std::size_t>(n));
    EXPECT_EQ(n, 0) << "read failed: " << std::strerror(errno);
    ::close(from);
    return splitLines(received);
}

/** roundTrip() on one connected socket. */
std::vector<std::string>
roundTrip(int fd, const std::string &requests)
{
    return roundTrip(fd, fd, requests);
}

/** The "type" member of a response line, "" if it has none. */
std::string
typeOf(const std::string &line)
{
    const std::string key = "\"type\":\"";
    const std::size_t at = line.find(key);
    if (at == std::string::npos)
        return "";
    const std::size_t begin = at + key.size();
    return line.substr(begin, line.find('"', begin) - begin);
}

bool
hasType(const std::string &line, const std::string &type)
{
    return typeOf(line) == type;
}

bool
isLineTooLong(const std::string &line)
{
    return hasType(line, "error") &&
           line.find("\"code\":\"line_too_long\"") != std::string::npos;
}

const std::string kPing = "{\"type\":\"ping\"}";

TEST(SocketTransport, AnswersAnUnterminatedLastRequest)
{
    const ScratchPath socket_path(".sock");
    Daemon daemon({"--socket", socket_path.path});
    ASSERT_TRUE(daemon.started());

    const int first = connectTo(socket_path.path);
    ASSERT_GE(first, 0) << "could not connect to " << socket_path.path;
    const std::vector<std::string> pings =
        roundTrip(first, kPing + "\n" + kPing);
    ASSERT_EQ(pings.size(), 3u);
    EXPECT_TRUE(hasType(pings[0], "hello")) << pings[0];
    EXPECT_TRUE(hasType(pings[1], "pong")) << pings[1];
    EXPECT_TRUE(hasType(pings[2], "pong")) << pings[2];

    const int second = connectTo(socket_path.path);
    ASSERT_GE(second, 0);
    const std::vector<std::string> bye =
        roundTrip(second, "{\"type\":\"shutdown\"}\n");
    ASSERT_EQ(bye.size(), 2u);
    EXPECT_TRUE(hasType(bye[0], "hello")) << bye[0];
    EXPECT_TRUE(hasType(bye[1], "bye")) << bye[1];

    EXPECT_EQ(daemon.wait(), 0);
}

TEST(SocketTransport, AnswersAnOversizedLineAndKeepsServing)
{
    const ScratchPath socket_path(".sock");
    Daemon daemon({"--socket", socket_path.path, "--max-line-bytes", "200"});
    ASSERT_TRUE(daemon.started());

    const int fd = connectTo(socket_path.path);
    ASSERT_GE(fd, 0) << "could not connect to " << socket_path.path;
    const std::vector<std::string> lines =
        roundTrip(fd, std::string(300, 'x') + "\n" + kPing + "\n");
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_TRUE(hasType(lines[0], "hello")) << lines[0];
    EXPECT_TRUE(isLineTooLong(lines[1])) << lines[1];
    EXPECT_TRUE(hasType(lines[2], "pong")) << lines[2];
}

TEST(SocketTransport, PartialLinePastTheBoundIsRejectedOnce)
{
    const ScratchPath socket_path(".sock");
    Daemon daemon({"--socket", socket_path.path, "--max-line-bytes", "200"});
    ASSERT_TRUE(daemon.started());

    const int fd = connectTo(socket_path.path);
    ASSERT_GE(fd, 0) << "could not connect to " << socket_path.path;
    // No newline yet: the bound alone must trigger the rejection.
    sendBytes(fd, std::string(300, 'x'));
    const std::vector<std::string> first = readLines(fd, 2);
    ASSERT_EQ(first.size(), 2u);
    EXPECT_TRUE(hasType(first[0], "hello")) << first[0];
    EXPECT_TRUE(isLineTooLong(first[1])) << first[1];

    // The rest of the line, its newline, then a ping: one pong, no
    // second rejection.
    const std::vector<std::string> rest =
        roundTrip(fd, std::string(100, 'x') + "\n" + kPing + "\n");
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_TRUE(hasType(rest[0], "pong")) << rest[0];
}

TEST(SocketTransport, StdinAndSocketGiveTheSameResponses)
{
    // A blank line, an oversized line, a terminated ping and an
    // unterminated one.
    const std::string requests =
        "\n" + std::string(300, 'x') + "\n" + kPing + "\n" + kPing;
    const std::vector<std::string> expected = {"hello", "error", "pong",
                                               "pong"};

    const ScratchPath socket_path(".sock");
    Daemon on_socket(
        {"--socket", socket_path.path, "--max-line-bytes", "200"});
    ASSERT_TRUE(on_socket.started());
    const int fd = connectTo(socket_path.path);
    ASSERT_GE(fd, 0) << "could not connect to " << socket_path.path;
    const std::vector<std::string> via_socket = roundTrip(fd, requests);

    Daemon on_stdio({"--max-line-bytes", "200"});
    ASSERT_TRUE(on_stdio.started());
    const int to = on_stdio.takeToDaemon();
    const int from = on_stdio.takeFromDaemon();
    const std::vector<std::string> via_stdin = roundTrip(to, from, requests);
    EXPECT_EQ(on_stdio.wait(), 0);

    for (const std::vector<std::string> *lines : {&via_socket, &via_stdin}) {
        std::vector<std::string> types;
        for (const std::string &line : *lines)
            types.push_back(typeOf(line));
        EXPECT_EQ(types, expected);
        ASSERT_EQ(lines->size(), expected.size());
        EXPECT_TRUE(isLineTooLong((*lines)[1])) << (*lines)[1];
    }
}

} // namespace
} // namespace qplacer
