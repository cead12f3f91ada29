/**
 * @file
 * qplacer_server: the placement-as-a-service daemon.
 *
 * Speaks the qplacer.serve/1 newline-delimited JSON protocol
 * (docs/PROTOCOL.md) over stdin/stdout by default, or over a Unix
 * domain socket with --socket. All engine logic lives in
 * PlacementServer (src/service/server.hpp); this file is transport
 * only: read lines, hand them to the server, serialize the responses.
 *
 * Transport hardening: request lines are bounded (--max-line-bytes,
 * default 8 MiB) -- an oversized line is discarded up to its newline
 * and answered with a structured "line_too_long" error instead of
 * ballooning memory; every socket syscall retries EINTR
 * (util/net_retry.hpp) so stray signals cannot tear down a healthy
 * connection.
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

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "qplacer.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"

#ifndef _WIN32
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/net_retry.hpp"
#endif

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
                 (one protocol session per connection; POSIX only).
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
                 Honor "failpoint" protocol requests and the
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
    options.enableFailpoints = opts.enableFailpoints;
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

/** One bounded line read off @p in. */
enum class LineRead
{
    Ok,      ///< A line (possibly empty) is in the buffer.
    TooLong, ///< Line exceeded the bound; discarded to its newline.
    Eof,     ///< Stream ended with no pending line.
};

/**
 * getline with a byte bound: an oversized line is consumed (up to and
 * including its newline) but never buffered whole, so a hostile or
 * corrupt producer cannot balloon daemon memory.
 */
LineRead
readLineBounded(std::istream &in, std::string &line, long max_bytes)
{
    line.clear();
    for (;;) {
        const int c = in.get();
        if (c == std::char_traits<char>::eof())
            return line.empty() ? LineRead::Eof : LineRead::Ok;
        if (c == '\n')
            return LineRead::Ok;
        if (static_cast<long>(line.size()) >= max_bytes) {
            for (;;) {
                const int d = in.get();
                if (d == std::char_traits<char>::eof() || d == '\n')
                    break;
            }
            return LineRead::TooLong;
        }
        line.push_back(static_cast<char>(c));
    }
}

/** Serve one request stream; returns when the peer closes or quits. */
void
serveStream(PlacementServer &server, std::istream &in,
            const ResponseSink &sink, long max_line_bytes)
{
    sink(makeHello(server.workers()));
    std::string line;
    for (;;) {
        const LineRead status = readLineBounded(in, line, max_line_bytes);
        if (status == LineRead::Eof)
            break;
        if (status == LineRead::TooLong) {
            sink(lineTooLong(max_line_bytes));
            continue;
        }
        if (line.empty())
            continue;
        if (!server.handleLine(line, sink))
            break; // Shutdown requested; bye already emitted.
    }
}

int
serveStdio(const ServerCliOptions &opts)
{
    PlacementServer server(engineOptions(opts));
    serveStream(
        server, std::cin,
        [](const JsonValue &response) {
            const std::string text = response.serialize();
            std::fwrite(text.data(), 1, text.size(), stdout);
            std::fputc('\n', stdout);
            std::fflush(stdout);
        },
        opts.maxLineBytes);
    server.drain();
    return 0;
}

#ifndef _WIN32

/** Write all of @p text + newline to @p fd; false on a broken peer. */
bool
writeLine(int fd, const std::string &text)
{
    std::string framed = text;
    framed.push_back('\n');
    return sendAll(fd, framed.data(), framed.size(),
#ifdef MSG_NOSIGNAL
                   MSG_NOSIGNAL
#else
                   0
#endif
    );
}

/**
 * Owns one connection's fd for writing. Job sinks hold this via
 * shared_ptr, so a sink can outlive the connection thread (queued
 * jobs finish after the peer hangs up): once close() ran, emits are
 * dropped instead of writing to a descriptor number the kernel may
 * already have recycled for another accept(). A failed send marks
 * the peer broken (later emits are dropped) but does NOT close the
 * fd -- the recv loop still owns it for reading.
 */
class ConnectionWriter
{
  public:
    explicit ConnectionWriter(int fd) : fd_(fd) {}

    /** The connection's fd; valid until close(), constant for life. */
    int fd() const { return fd_; }

    void
    emit(const JsonValue &response)
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (closed_ || broken_)
            return;
        if (!writeLine(fd_, response.serialize()))
            broken_ = true;
    }

    /** Unblocks a recv() on this fd (EOF) without closing it. */
    void
    shutdownRead()
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!closed_)
            ::shutdown(fd_, SHUT_RD);
    }

    void
    close()
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!closed_) {
            ::close(fd_);
            closed_ = true;
        }
    }

  private:
    std::mutex mu_;
    const int fd_;
    bool closed_ = false;
    bool broken_ = false;
};

/** One connection: bounded line-framed reads, shared PlacementServer. */
void
serveConnection(PlacementServer &server,
                const std::shared_ptr<ConnectionWriter> &writer,
                int listener, std::atomic<bool> &stop,
                long max_line_bytes)
{
    const int fd = writer->fd();
    const ResponseSink sink = [writer](const JsonValue &response) {
        writer->emit(response);
    };
    sink(makeHello(server.workers()));

    // Serves one request line; false once it asked for shutdown.
    const auto serveLine = [&](const std::string &line) {
        if (static_cast<long>(line.size()) > max_line_bytes) {
            sink(lineTooLong(max_line_bytes));
            return true;
        }
        if (line.empty() || server.handleLine(line, sink))
            return true;
        stop.store(true);
        // accept() in serveSocket blocks with no one left to connect;
        // shut the listener down so it returns and the daemon can drain
        // and exit.
        ::shutdown(listener, SHUT_RDWR);
        return false;
    };

    std::string buffer;
    char chunk[4096];
    bool open = true;
    // Oversized-line mode: the error was sent; bytes are dropped until
    // the line's terminating newline arrives.
    bool discarding = false;
    while (open) {
        const ssize_t n = retryRecv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0) {
            // The peer's EOF ends an unterminated last request, as on
            // stdin. (A discarded line left the buffer empty, and a
            // shutdown kick from serveSocket is no request.)
            if (n == 0 && !buffer.empty() && !stop.load())
                serveLine(buffer);
            break;
        }
        buffer.append(chunk, static_cast<std::size_t>(n));
        std::size_t eol;
        while (open && (eol = buffer.find('\n')) != std::string::npos) {
            const std::string line = buffer.substr(0, eol);
            buffer.erase(0, eol + 1);
            if (discarding)
                discarding = false; // Tail of the oversized line.
            else
                open = serveLine(line);
        }
        // No newline yet: bound the partial line too, so a peer that
        // never sends '\n' cannot grow the buffer without limit.
        if (open && !discarding &&
            static_cast<long>(buffer.size()) > max_line_bytes) {
            sink(lineTooLong(max_line_bytes));
            discarding = true;
            buffer.clear();
        }
        if (discarding)
            buffer.clear();
    }
    // A peer may half-close its write side right after submitting
    // (the `printf | nc -U` pattern above): recv() sees EOF while its
    // jobs are still queued. Wait for outstanding jobs before closing
    // so their results reach the socket rather than a dead writer.
    server.drain();
    writer->close();
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
    std::vector<std::weak_ptr<ConnectionWriter>> writers;
    while (!stop.load()) {
        const int fd = retryAccept(listener, nullptr, nullptr);
        if (fd < 0)
            break;
        if (stop.load()) {
            ::close(fd);
            break;
        }
        auto writer = std::make_shared<ConnectionWriter>(fd);
        writers.push_back(writer);
        const long max_line = opts.maxLineBytes;
        connections.emplace_back(
            [&server, writer, listener, &stop, max_line] {
                serveConnection(server, writer, listener, stop, max_line);
            });
    }
    // Kick idle connections out of recv() so the join below cannot
    // hang on a client that stays connected across shutdown.
    for (const std::weak_ptr<ConnectionWriter> &entry : writers)
        if (const auto writer = entry.lock())
            writer->shutdownRead();
    for (std::thread &t : connections)
        if (t.joinable())
            t.join();
    ::close(listener);
    ::unlink(opts.socketPath.c_str());
    server.drain();
    return 0;
}

#endif // !_WIN32

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

    // Fault injection from the environment, same gate as the protocol
    // request. A malformed list is a hard error: silently running
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

    if (!opts.socketPath.empty()) {
#ifndef _WIN32
        return serveSocket(opts);
#else
        fatal("--socket is not supported on this platform");
#endif
    }
    return serveStdio(opts);
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
