/**
 * @file
 * qplacer_server: the placement-as-a-service daemon.
 *
 * Speaks the qplacer.serve/1 newline-delimited JSON protocol
 * (docs/PROTOCOL.md) over stdin/stdout by default, or over a Unix
 * domain socket with --socket. All engine logic lives in
 * PlacementServer (src/service/server.hpp); this file is transport
 * only: read lines, hand them to the server, serialize the responses.
 * Both transports are one Channel (an input and an output fd) served
 * by one loop, so they frame requests by the same rules. POSIX only.
 *
 * Transport hardening: request lines are bounded (--max-line-bytes,
 * default 8 MiB) -- an oversized line is discarded up to its newline
 * and answered with a structured "line_too_long" error instead of
 * ballooning memory; every read, write and accept retries EINTR
 * (util/net_retry.hpp) so stray signals cannot tear down a healthy
 * session; SIGPIPE is ignored, so a reader that went away costs only
 * its own session's responses.
 *
 * Examples:
 *   echo '{"type":"submit","id":"a","topology":"Falcon"}' \
 *     | qplacer_server --workers 2
 *   qplacer_server --socket /tmp/qplacer.sock &
 *   printf '%s\n' '{"type":"ping"}' | nc -U /tmp/qplacer.sock
 *
 * Logging goes to stderr (util/logging.hpp), so stdout stays pure
 * NDJSON even with --workers > 1.
 */

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "qplacer.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"
#include "util/net_retry.hpp"

namespace qplacer {
namespace {

struct ServerCliOptions
{
    int workers = 0;        ///< 0 = hardware concurrency, capped.
    std::string socketPath; ///< Empty = stdin/stdout transport.
    std::string stateDir;   ///< Empty = memory-only prior store.
    int maxQueue = 0;       ///< 0 = unbounded queue.
    int snapshotEvery = 32;
    double defaultDeadlineMs = 0.0; ///< 0 = no default deadline.
    long maxLineBytes = 8L * 1024 * 1024;
    bool enableFailpoints = false;
    bool quiet = false;
    bool help = false;
};

const char *kUsage =
    R"(qplacer_server - placement-as-a-service daemon (qplacer.serve/1)

Reads newline-delimited JSON requests and writes one JSON response per
line; see docs/PROTOCOL.md for the wire format. Each worker runs one
job at a time; a submit with a bad topology spec is answered with an
error in place of the ack, and submit requests with a "base" field
re-place incrementally from a prior job's layout.

Usage: qplacer_server [options]

Options:
  --workers N    Concurrent jobs (default 0 = hardware concurrency,
                 capped; 1 = strictly ordered). With N > 1 each job is
                 placed single-threaded so workers do not oversubscribe
                 the cores; the same seed gives the same layout either
                 way.
  --socket PATH  Serve on a Unix domain socket instead of stdin/stdout
                 (one protocol session per connection).
  --state-dir PATH
                 Persist finished layouts (the incremental-re-place
                 prior store) in PATH: an fsynced, CRC-checked journal
                 plus periodic snapshots, replayed on startup. Acked
                 results survive crashes and kill -9.
  --snapshot-every N
                 Journal appends between snapshot compactions under
                 --state-dir (default 32).
  --max-queue N  Reject submits once N jobs are waiting, with a
                 structured "overloaded" error carrying queue_depth and
                 a retry_after_ms backoff hint (default 0 = unbounded).
  --default-deadline-ms MS
                 Deadline for jobs that do not carry their own
                 "deadline_ms", in milliseconds of execution time;
                 expired jobs report status "deadline_exceeded"
                 (default 0 = none).
  --max-line-bytes N
                 Longest accepted request line; longer lines are
                 discarded and answered with a "line_too_long" error
                 (default 8388608 = 8 MiB).
  --enable-failpoints
                 Arm the failpoint sites listed in the
                 QPLACER_FAILPOINTS environment variable
                 ("site=error;site2=delay(50);site3=crash") for fault
                 injection. Never enable in production.
  --quiet        Suppress status logging (errors still shown).
  --help         Show this message.
)";

ServerCliOptions
parseArgs(int argc, char **argv)
{
    ServerCliOptions opts;
    auto need = [&](int &i, const std::string &flag) -> std::string {
        if (i + 1 >= argc)
            fatal("missing value for " + flag);
        return argv[++i];
    };
    auto needInt = [&](int &i, const std::string &flag) -> long {
        try {
            return std::stol(need(i, flag));
        } catch (const std::exception &) {
            fatal("expected an integer for " + flag);
        }
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workers") {
            opts.workers = static_cast<int>(needInt(i, arg));
            if (opts.workers < 0)
                fatal("--workers must be non-negative");
        } else if (arg == "--socket") {
            opts.socketPath = need(i, arg);
        } else if (arg == "--state-dir") {
            opts.stateDir = need(i, arg);
        } else if (arg == "--snapshot-every") {
            opts.snapshotEvery = static_cast<int>(needInt(i, arg));
            if (opts.snapshotEvery < 1)
                fatal("--snapshot-every must be positive");
        } else if (arg == "--max-queue") {
            opts.maxQueue = static_cast<int>(needInt(i, arg));
            if (opts.maxQueue < 0)
                fatal("--max-queue must be non-negative");
        } else if (arg == "--default-deadline-ms") {
            try {
                opts.defaultDeadlineMs = std::stod(need(i, arg));
            } catch (const std::exception &) {
                fatal("expected a number for --default-deadline-ms");
            }
            if (opts.defaultDeadlineMs < 0.0)
                fatal("--default-deadline-ms must be non-negative");
        } else if (arg == "--max-line-bytes") {
            opts.maxLineBytes = needInt(i, arg);
            if (opts.maxLineBytes < 1)
                fatal("--max-line-bytes must be positive");
        } else if (arg == "--enable-failpoints") {
            opts.enableFailpoints = true;
        } else if (arg == "--quiet") {
            opts.quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            opts.help = true;
        } else {
            fatal("unknown option '" + arg + "' (see --help)");
        }
    }
    return opts;
}

ServerOptions
engineOptions(const ServerCliOptions &opts)
{
    ServerOptions options;
    options.workers = opts.workers;
    options.stateDir = opts.stateDir;
    options.snapshotEvery = opts.snapshotEvery;
    options.maxQueue = opts.maxQueue;
    options.defaultDeadlineMs = opts.defaultDeadlineMs;
    options.logging = !opts.quiet;
    return options;
}

/** The structured rejection for a request line past the bound. */
JsonValue
lineTooLong(long max_line_bytes)
{
    return makeErrorCode("", "line_too_long",
                         str("request line exceeds --max-line-bytes (",
                             max_line_bytes, " bytes); line discarded"));
}

/**
 * One protocol session's byte stream: requests are read from one fd
 * and responses written to another (stdin and stdout for the stdio
 * transport, the same connected socket for a socket session).
 *
 * Job sinks hold the channel via shared_ptr, so a sink can outlive the
 * session's loop (queued jobs finish after the peer hangs up): once
 * close() ran, emits are dropped instead of writing to a descriptor
 * number the kernel may already have recycled for another accept(). A
 * failed write (the peer or the stdout reader is gone; SIGPIPE is
 * ignored) marks the channel broken and later emits are dropped, but
 * does NOT close it: the serve loop still owns it for reading.
 */
class Channel
{
  public:
    Channel(int in_fd, int out_fd) : inFd_(in_fd), outFd_(out_fd) {}

    /** Up to @p len request bytes; 0 at EOF, -1 on error. */
    ssize_t
    read(char *buf, std::size_t len)
    {
        return retryRead(inFd_, buf, len);
    }

    /** Writes @p response and its newline whole, serialized. */
    void
    emit(const JsonValue &response)
    {
        std::string text = response.serialize();
        text.push_back('\n');
        std::lock_guard<std::mutex> lock(mu_);
        if (closed_ || broken_)
            return;
        if (!writeAll(outFd_, text.data(), text.size()))
            broken_ = true;
    }

    /** Unblocks a read() of this socket (EOF) without closing it. */
    void
    shutdownRead()
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!closed_) {
            kicked_ = true;
            ::shutdown(inFd_, SHUT_RD);
        }
    }

    /** True once shutdownRead() ended the input. */
    bool
    kicked()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return kicked_;
    }

    void
    close()
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!closed_) {
            ::close(inFd_);
            if (outFd_ != inFd_)
                ::close(outFd_);
            closed_ = true;
        }
    }

  private:
    std::mutex mu_;
    const int inFd_;
    const int outFd_;
    bool closed_ = false;
    bool broken_ = false;
    bool kicked_ = false;
};

/**
 * Serves one protocol session on @p channel: hello first, then each
 * request line, until the peer's EOF or a shutdown request. Lines are
 * bounded: a line over @p max_line_bytes, or a partial line past it,
 * is answered with one "line_too_long" and discarded up to its
 * newline, never buffered whole. Blank lines are skipped. The peer's
 * EOF ends an unterminated last request (a shutdown kick is no
 * request). True once the session asked for shutdown (bye emitted).
 */
bool
serve(PlacementServer &server, const std::shared_ptr<Channel> &channel,
      long max_line_bytes)
{
    const ResponseSink sink = [channel](const JsonValue &response) {
        channel->emit(response);
    };
    sink(makeHello(server.workers()));

    // Serves one request line; false once it asked for shutdown.
    const auto serveLine = [&](const std::string &line) {
        if (static_cast<long>(line.size()) > max_line_bytes) {
            sink(lineTooLong(max_line_bytes));
            return true;
        }
        return line.empty() || server.handleLine(line, sink);
    };

    std::string buffer;
    char chunk[4096];
    // Oversized-line mode: the error was sent; bytes are dropped until
    // the line's terminating newline arrives.
    bool discarding = false;
    for (;;) {
        const ssize_t n = channel->read(chunk, sizeof(chunk));
        if (n <= 0) {
            // A discarded line left the buffer empty.
            if (n == 0 && !buffer.empty() && !channel->kicked())
                return !serveLine(buffer);
            return false;
        }
        buffer.append(chunk, static_cast<std::size_t>(n));
        std::size_t begin = 0;
        std::size_t eol;
        while ((eol = buffer.find('\n', begin)) != std::string::npos) {
            const std::string line = buffer.substr(begin, eol - begin);
            begin = eol + 1;
            if (discarding)
                discarding = false; // Tail of the oversized line.
            else if (!serveLine(line))
                return true;
        }
        buffer.erase(0, begin);
        // No newline yet: bound the partial line too, so a peer that
        // never sends '\n' cannot grow the buffer without limit.
        if (!discarding &&
            static_cast<long>(buffer.size()) > max_line_bytes) {
            sink(lineTooLong(max_line_bytes));
            discarding = true;
        }
        if (discarding)
            buffer.clear();
    }
}

int
serveSocket(const ServerCliOptions &opts)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opts.socketPath.size() >= sizeof(addr.sun_path))
        fatal("--socket path too long");
    std::strncpy(addr.sun_path, opts.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);

    const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listener < 0)
        fatal("socket() failed");
    ::unlink(opts.socketPath.c_str());
    if (::bind(listener, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0)
        fatal("bind('" + opts.socketPath + "') failed");
    if (::listen(listener, 8) != 0)
        fatal("listen('" + opts.socketPath + "') failed");
    if (!opts.quiet)
        inform("qplacer_server: listening on " + opts.socketPath);

    PlacementServer server(engineOptions(opts));

    std::atomic<bool> stop{false};
    std::vector<std::thread> connections;
    std::vector<std::weak_ptr<Channel>> channels;
    while (!stop.load()) {
        const int fd = retryAccept(listener, nullptr, nullptr);
        if (fd < 0)
            break;
        if (stop.load()) {
            ::close(fd);
            break;
        }
        auto channel = std::make_shared<Channel>(fd, fd);
        channels.push_back(channel);
        const long max_line = opts.maxLineBytes;
        connections.emplace_back([&server, channel, listener, &stop,
                                  max_line] {
            if (serve(server, channel, max_line)) {
                stop.store(true);
                // accept() below blocks with no one left to connect;
                // shut the listener down so it returns and the daemon
                // can drain and exit.
                ::shutdown(listener, SHUT_RDWR);
            }
            // A peer may half-close its write side right after
            // submitting (the `printf | nc -U` pattern above): read()
            // sees EOF while its jobs are still queued. Wait for
            // outstanding jobs before closing so their results reach
            // the socket rather than a dead channel.
            server.drain();
            channel->close();
        });
    }
    // Kick idle connections out of read() so the join below cannot
    // hang on a client that stays connected across shutdown.
    for (const std::weak_ptr<Channel> &entry : channels)
        if (const auto channel = entry.lock())
            channel->shutdownRead();
    for (std::thread &t : connections)
        if (t.joinable())
            t.join();
    ::close(listener);
    ::unlink(opts.socketPath.c_str());
    server.drain();
    return 0;
}

int
serverMain(int argc, char **argv)
{
    const ServerCliOptions opts = parseArgs(argc, argv);
    if (opts.help) {
        std::fputs(kUsage, stdout);
        return 0;
    }
    if (opts.quiet)
        Logger::instance().setLevel(LogLevel::Warn);

    // Fault injection from the environment, behind its own flag. A
    // malformed list is a hard error: silently running
    // without the faults a test asked for would pass vacuously.
    if (const char *env = std::getenv("QPLACER_FAILPOINTS")) {
        if (opts.enableFailpoints) {
            std::string error;
            if (!Failpoints::instance().armFromList(env, &error))
                fatal("QPLACER_FAILPOINTS: " + error);
            if (!opts.quiet)
                inform("qplacer_server: failpoints armed from "
                       "environment");
        } else if (env[0] != '\0') {
            warn("QPLACER_FAILPOINTS is set but --enable-failpoints "
                 "is not; ignoring it");
        }
    }

    // A reader that went away (a closed socket, a stdout pipe's reader)
    // fails the write, and that session's later responses are dropped;
    // it must not kill the daemon and every other session with it.
    std::signal(SIGPIPE, SIG_IGN);

    if (!opts.socketPath.empty())
        return serveSocket(opts);
    PlacementServer server(engineOptions(opts));
    serve(server, std::make_shared<Channel>(STDIN_FILENO, STDOUT_FILENO),
          opts.maxLineBytes);
    server.drain();
    return 0;
}

} // namespace
} // namespace qplacer

int
main(int argc, char **argv)
{
    try {
        return qplacer::serverMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "qplacer_server: %s\n", e.what());
        return 1;
    }
}
