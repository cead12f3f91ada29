/**
 * @file
 * The qplacer.serve/1 wire protocol: newline-delimited JSON requests
 * (submit / cancel / ping / shutdown) and responses (hello / ack /
 * progress / result / error / pong / bye). docs/PROTOCOL.md is the
 * field-by-field reference; this header is its implementation.
 *
 * Parsing is strict: unknown request types, missing ids, unknown
 * "set" keys, and malformed values are errors carried back to the
 * client -- a daemon fed garbage must answer, not die.
 */

#ifndef QPLACER_SERVICE_PROTOCOL_HPP
#define QPLACER_SERVICE_PROTOCOL_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "pipeline/flow.hpp"
#include "service/json.hpp"
#include "util/config.hpp"

namespace qplacer {

/** Protocol schema identifier, bumped on breaking changes. */
inline constexpr const char *kServeSchema = "qplacer.serve/1";

/** One placement job as requested over the wire. */
struct SubmitRequest
{
    std::string id;            ///< Client-chosen job id (echoed back).
    std::string topology;      ///< Device spec (name or parametric).
    PlacerMode mode = PlacerMode::Qplacer;
    std::uint64_t seed = 1;
    double segmentUm = 300.0;  ///< Resonator segment length.
    Config set;                ///< --set overrides, portfolio object too.

    /**
     * Progress streaming: -1 = none (default), 0 = stage events only,
     * N > 0 = stage events plus every Nth placement iteration.
     */
    int progressEvery = -1;

    /**
     * Job deadline in milliseconds of *execution* time (the clock
     * starts when a worker picks the job up, not while it queues).
     * 0 = no per-job deadline; the server's --default-deadline-ms
     * applies instead, when set. On expiry the server cancels the job
     * and its result reports status "deadline_exceeded".
     */
    double deadlineMs = 0.0;

    /** Include the placed instance positions in the result. */
    bool wantLayout = false;

    /** Incremental re-place: warm-start from this prior job's result. */
    std::string baseId;

    /** Delta for incremental runs: qubits whose neighbourhood changed. */
    std::vector<int> dirtyQubits;

    /**
     * Delta for incremental runs: couplers whose wiring changed, as
     * [qubit_a, qubit_b] endpoint pairs. The server folds both
     * endpoints into the dirty-qubit closure.
     */
    std::vector<std::pair<int, int>> dirtyCouplers;

    bool isIncremental() const { return !baseId.empty(); }
};

/** Any parsed request. */
struct Request
{
    enum class Type { Submit, Cancel, Ping, Shutdown };

    Type type = Type::Ping;
    std::string id;       ///< Job id (submit / cancel).
    SubmitRequest submit; ///< Valid when type == Submit.
};

/**
 * Parse one request line. On failure returns false with a message in
 * @p error; when the line carried a recognizable job id it is left in
 * @p out.id so the error response can name the job.
 */
bool parseRequest(const std::string &line, Request &out, std::string *error);

/** {"type":"hello",...} greeting emitted once per connection. */
JsonValue makeHello(int workers);

/** {"type":"ack"} -- request accepted and queued. */
JsonValue makeAck(const std::string &id);

/** {"type":"error"} -- request rejected or job failed to start. */
JsonValue makeError(const std::string &id, const std::string &message);

/**
 * {"type":"error","code":...} -- a machine-readable error class on
 * top of makeError. Codes in use: "overloaded" (queue full),
 * "shutting_down" (submit after shutdown was accepted),
 * "line_too_long" (request exceeded --max-line-bytes), "injected"
 * (a failpoint Error action fired).
 * See docs/PROTOCOL.md's error-code table.
 */
JsonValue makeErrorCode(const std::string &id, const std::string &code,
                        const std::string &message);

/**
 * The "overloaded" rejection for a bounded queue: a makeErrorCode
 * carrying "queue_depth" (jobs waiting) and "retry_after_ms" (an
 * EWMA-of-service-time estimate of when capacity frees up) so clients
 * can back off intelligently.
 */
JsonValue makeOverloaded(const std::string &id, int queue_depth,
                         double retry_after_ms);

/**
 * {"type":"pong","queue_depth":...,"active_jobs":...} -- liveness
 * plus load: jobs waiting in the queue and jobs currently running,
 * so clients can back off before submitting into an overload.
 */
JsonValue makePong(int queue_depth, int active_jobs);

/** {"type":"bye"} -- shutdown complete after draining @p jobs jobs. */
JsonValue makeBye(int jobs);

/** {"type":"progress","event":"stage_begin"} */
JsonValue makeStageBegin(const std::string &id, const std::string &stage);

/** {"type":"progress","event":"stage_end"} */
JsonValue makeStageEnd(const std::string &id, const std::string &stage,
                       double seconds);

/**
 * {"type":"progress","event":"iteration"}. @p hpwl is the exact HPWL
 * of the evaluated iterate (PlaceProgress::hpwl), an additive field of
 * the progress event.
 */
JsonValue makeIteration(const std::string &id, int iteration,
                        double overflow, double hpwl);

/**
 * {"type":"result"}: the job outcome. @p report is the
 * qplacer.flow_report/1-shaped job object (jobReportJson); a layout
 * array is attached when the request asked for one.
 */
JsonValue makeResult(const std::string &id, JsonValue report);

/**
 * One job object of the qplacer.flow_report/1 schema
 * (docs/REPORT_SCHEMA.md), the single serializer behind both the
 * server's results and the CLI's --report json. Carries the additive
 * "incremental" member for warm-started runs, the additive "detailed"
 * member when the annealing stage ran, and the additive "portfolio"
 * member for portfolio runs. "fidelity" is null; the CLI replaces it
 * with its proxy.
 */
JsonValue jobReportJson(const FlowResult &result, std::uint64_t seed);

/**
 * Placed instance positions as [[id, kind, x, y], ...]. Coordinates
 * serialize with exact round-trip literals, so a client can compare
 * layouts bitwise across runs.
 */
JsonValue layoutJson(const Netlist &netlist);

} // namespace qplacer

#endif
