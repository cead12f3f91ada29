/** @file PlacementServer implementation; contract in server.hpp. */

#include "service/server.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "pipeline/overrides.hpp"
#include "topology/factory.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace qplacer {
namespace {

/** EWMA weight of the newest service-time sample. */
constexpr double kEwmaAlpha = 0.2;

/** A job still running this long past its deadline is logged. */
constexpr auto kStuckGrace = std::chrono::seconds(2);

/**
 * The stage whose span in @p trace holds the instant @p offset after
 * the flow began ("" past the last stage). Stage spans under the root
 * flow span run in sequence, so their summed seconds are their ends.
 */
std::string
stageAt(const Trace &trace, std::chrono::duration<double> offset)
{
    const int flow = trace.find(Trace::kRoot, kFlowSpan);
    if (flow < 0)
        return "";
    double end = 0.0;
    for (const Trace::Node &node : trace.nodes()) {
        if (node.parent != flow)
            continue;
        end += node.seconds;
        if (offset.count() <= end)
            return node.name;
    }
    return "";
}

/**
 * Streams FlowObserver events for one job as progress responses.
 * progressEvery: -1 = silent, 0 = stage events, N > 0 = stage events
 * plus every Nth placement iteration (see SubmitRequest).
 */
class StreamObserver : public FlowObserver
{
  public:
    StreamObserver(std::string id, int progress_every,
                   std::function<void(const JsonValue &)> emit)
        : id_(std::move(id)), progressEvery_(progress_every),
          emit_(std::move(emit))
    {
    }

    void
    onStageBegin(const FlowContext &, const std::string &stage) override
    {
        if (progressEvery_ >= 0)
            emit_(makeStageBegin(id_, stage));
    }

    void
    onStageEnd(const FlowContext &, const std::string &stage,
               double seconds) override
    {
        if (progressEvery_ >= 0)
            emit_(makeStageEnd(id_, stage, seconds));
    }

    void
    onIteration(const FlowContext &, const PlaceProgress &progress) override
    {
        if (progressEvery_ > 0 && progress.iteration % progressEvery_ == 0)
            emit_(makeIteration(id_, progress.iteration, progress.overflow,
                                progress.hpwl));
    }

  private:
    std::string id_;
    int progressEvery_;
    std::function<void(const JsonValue &)> emit_;
};

} // namespace

PlacementServer::PlacementServer(ServerOptions options)
    : options_(std::move(options))
{
    PriorStoreOptions store;
    store.capacity = options_.resultCacheCap;
    store.stateDir = options_.stateDir;
    store.snapshotEvery = options_.snapshotEvery;
    priors_ = std::make_unique<PriorStore>(store);

    const int n = ThreadPool::resolveThreadCount(options_.workers);
    workers_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        auto worker = std::make_unique<Worker>();
        // Concurrency lives at the server's job level.
        worker->session = std::make_unique<PlacementSession>(1);
        workers_.push_back(std::move(worker));
    }
    for (int i = 0; i < n; ++i)
        workers_[static_cast<std::size_t>(i)]->thread =
            std::thread([this, i] { workerLoop(i); });
}

PlacementServer::~PlacementServer()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    workAvailable_.notify_all();
    for (auto &worker : workers_)
        if (worker->thread.joinable())
            worker->thread.join();
}

bool
PlacementServer::handleLine(const std::string &line,
                            const ResponseSink &sink)
{
    Request req;
    std::string error;
    if (!parseRequest(line, req, &error)) {
        emit(sink, makeError(req.id, error));
        return true;
    }

    switch (req.type) {
    case Request::Type::Ping: {
        int depth = 0;
        int active = 0;
        {
            std::lock_guard<std::mutex> lock(mu_);
            depth = static_cast<int>(queue_.size());
            active = activeJobsLocked();
        }
        emit(sink, makePong(depth, active));
        return true;
    }

    case Request::Type::Cancel:
        if (cancel(req.id))
            emit(sink, makeAck(req.id));
        else
            emit(sink, makeError(req.id, "no queued or running job '" +
                                             req.id + "'"));
        return true;

    case Request::Type::Shutdown:
        // Stop accepting *before* draining: a submit racing this
        // shutdown gets a deterministic "shutting_down" rejection
        // instead of a job whose result may never be read.
        {
            std::lock_guard<std::mutex> lock(mu_);
            accepting_ = false;
        }
        drain();
        emit(sink, makeBye(jobsCompleted()));
        return false;

    case Request::Type::Submit:
        break;
    }

    submit(req.submit, sink);
    return true;
}

bool
PlacementServer::submit(const SubmitRequest &request, ResponseSink sink)
{
    // A spec that can never run is answered in place of the ack. The
    // base id is checked at run time instead (a queued base job may
    // finish before this one starts).
    Topology topo;
    std::string error;
    if (!resolveTopologySpec(request.topology, topo, &error)) {
        emit(sink, makeError(request.id, error));
        return false;
    }

    // The admission failpoint runs before any lock is held: a delay
    // action must stall only this submit, not the workers.
    if (QPLACER_FAILPOINT("server.queue_admission")) {
        emit(sink, makeErrorCode(request.id, "injected",
                                 "injected failure at failpoint "
                                 "'server.queue_admission'"));
        return false;
    }

    // Admission and its response happen under emitMu_, with mu_ nested
    // inside, so no worker can emit this job's result before the ack
    // is on the wire. The nesting order (emitMu_ -> mu_) is safe
    // because emit() is never called while holding mu_.
    bool accepted = false;
    {
        std::lock_guard<std::mutex> order(emitMu_);
        JsonValue response;
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (!accepting_) {
                response = makeErrorCode(request.id, "shutting_down",
                                         "server is shutting down; "
                                         "submit rejected");
            } else if (idActiveLocked(request.id)) {
                // Checked in the same critical section as the push, so
                // two same-id submits racing on two connections cannot
                // both be admitted.
                response = makeError(request.id,
                                     "job id '" + request.id +
                                         "' is already queued or running");
            } else if (options_.maxQueue > 0 &&
                       static_cast<int>(queue_.size()) >=
                           options_.maxQueue) {
                response =
                    makeOverloaded(request.id,
                                   static_cast<int>(queue_.size()),
                                   retryAfterMsLocked());
            } else {
                accepted = true;
                queue_.push_back(Job{request, sink, std::move(topo)});
                response = makeAck(request.id);
            }
        }
        if (QPLACER_FAILPOINT("server.emit"))
            warn("server: response for job '" + request.id +
                 "' dropped at failpoint 'server.emit'");
        else
            sink(response);
    }
    if (accepted)
        workAvailable_.notify_one();
    return accepted;
}

bool
PlacementServer::cancel(const std::string &id)
{
    Job cancelled;
    bool queued = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
            if (it->request.id == id) {
                cancelled = std::move(*it);
                queue_.erase(it);
                queued = true;
                break;
            }
        }
        if (!queued) {
            for (auto &worker : workers_) {
                if (worker->runningId == id) {
                    worker->session->cancelToken().cancel();
                    return true;
                }
            }
            return false;
        }
        ++completed_;
    }
    workDone_.notify_all();

    // Synthesize a cancelled result so the client still gets a
    // terminal response for the job.
    FlowResult result;
    result.status.code = FlowCode::Cancelled;
    result.status.message = "cancelled before start";
    emit(cancelled.sink,
         makeResult(id, jobReportJson(result, cancelled.request.seed)));
    return true;
}

void
PlacementServer::drain()
{
    std::unique_lock<std::mutex> lock(mu_);
    workDone_.wait(lock, [this] {
        if (!queue_.empty())
            return false;
        for (const auto &worker : workers_)
            if (!worker->runningId.empty())
                return false;
        return true;
    });
}

int
PlacementServer::jobsCompleted() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return completed_;
}

int
PlacementServer::activeJobs() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return activeJobsLocked();
}

int
PlacementServer::activeJobsLocked() const
{
    int active = 0;
    for (const auto &worker : workers_)
        if (!worker->runningId.empty())
            ++active;
    return active;
}

bool
PlacementServer::idActiveLocked(const std::string &id) const
{
    for (const Job &job : queue_)
        if (job.request.id == id)
            return true;
    for (const auto &worker : workers_)
        if (worker->runningId == id)
            return true;
    return false;
}

double
PlacementServer::retryAfterMsLocked() const
{
    if (!hasServiceSample_)
        return 1000.0; // No history yet; a conservative default.
    const double depth = static_cast<double>(queue_.size());
    const double lanes =
        static_cast<double>(std::max<std::size_t>(1, workers_.size()));
    return ewmaServiceMs_ * (depth + 1.0) / lanes;
}

void
PlacementServer::workerLoop(int worker_index)
{
    Worker &self = *workers_[static_cast<std::size_t>(worker_index)];
    for (;;) {
        Job job;
        std::optional<CancelToken::Clock::time_point> deadline;
        {
            std::unique_lock<std::mutex> lock(mu_);
            workAvailable_.wait(
                lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping_ and nothing left to drain.
            job = std::move(queue_.front());
            queue_.pop_front();
            // Reset the token before publishing runningId, both under
            // mu_: once a cancel request can match this job, nothing
            // may wipe its token again (a late reset would turn an
            // acked cancel into a job that runs to completion).
            CancelToken &token = self.session->cancelToken();
            token.reset();
            // The deadline clock measures execution, not queueing:
            // it starts here, at pickup.
            const double deadline_ms = job.request.deadlineMs > 0.0
                                           ? job.request.deadlineMs
                                           : options_.defaultDeadlineMs;
            if (deadline_ms > 0.0) {
                deadline = CancelToken::Clock::now() +
                           std::chrono::duration_cast<
                               CancelToken::Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   deadline_ms));
                token.setDeadline(*deadline);
            }
            self.runningId = job.request.id;
        }

        Timer timer;
        if (QPLACER_FAILPOINT("server.worker_pickup")) {
            emit(job.sink, makeErrorCode(job.request.id, "injected",
                                         "injected failure at failpoint "
                                         "'server.worker_pickup'"));
        } else {
            runJob(worker_index, job, deadline);
        }
        const double service_ms = timer.seconds() * 1000.0;
        {
            std::lock_guard<std::mutex> lock(mu_);
            self.runningId.clear();
            ++completed_;
            ewmaServiceMs_ = hasServiceSample_
                                 ? kEwmaAlpha * service_ms +
                                       (1.0 - kEwmaAlpha) * ewmaServiceMs_
                                 : service_ms;
            hasServiceSample_ = true;
        }
        workDone_.notify_all();
    }
}

void
PlacementServer::runJob(
    int worker_index, Job &job,
    std::optional<CancelToken::Clock::time_point> deadline)
{
    PlacementSession &session =
        *workers_[static_cast<std::size_t>(worker_index)]->session;
    const SubmitRequest &req = job.request;

    FlowParams params;
    params.mode = req.mode;
    params.placer.seed = req.seed;
    params.partition.segmentUm = req.segmentUm;
    applyOverrides(req.set, params);
    // A portfolio runs on the resolved portfolio.seeds, whether "set"
    // or the "portfolio" shorthand supplied it.
    const bool portfolio = params.portfolio.seeds > 1;
    if (portfolio && req.isIncremental()) {
        emit(job.sink, makeError(req.id, "'portfolio' and 'base' are "
                                         "mutually exclusive"));
        return;
    }
    if (portfolio && params.mode == PlacerMode::Human) {
        emit(job.sink,
             makeError(req.id, "portfolio requires qplacer|classic mode"));
        return;
    }
    // Concurrent workers already keep the cores busy, so each job
    // places single-threaded rather than oversubscribe them, like
    // PlacementSession::runBatch. The layout is the same either way.
    if (workers() > 1)
        params.placer.threads = 1;

    std::shared_ptr<const PriorLayout> prior;
    if (req.isIncremental()) {
        // get() promotes on hit (LRU): a hot incremental base must not
        // be evicted by unrelated submits while still in active use.
        prior = priors_->get(req.baseId);
        if (!prior) {
            emit(job.sink,
                 makeError(req.id, "unknown base job '" + req.baseId +
                                       "' (evicted or never run)"));
            return;
        }
    }

    if (options_.logging)
        inform("server: job '" + req.id + "' starting on worker " +
               std::to_string(worker_index));

    StreamObserver observer(
        req.id, req.progressEvery,
        [this, &job](const JsonValue &v) { emit(job.sink, v); });
    session.setObserver(&observer); // Token was reset in workerLoop.
    const auto flow_start = CancelToken::Clock::now();
    FlowResult result;
    if (prior) {
        NetlistDelta delta;
        delta.dirtyQubits = req.dirtyQubits;
        // A dirtied coupler dirties both endpoint qubits; the delta
        // closure picks up the resonator chain between them.
        for (const auto &coupler : req.dirtyCouplers) {
            delta.dirtyQubits.push_back(coupler.first);
            delta.dirtyQubits.push_back(coupler.second);
        }
        result = session.runIncremental(job.topo, params, *prior, delta);
    } else {
        result = session.run(job.topo, params);
    }
    session.setObserver(nullptr);

    // A stop at the deadline reports distinctly from a client cancel.
    // A job that still finished Ok keeps its Ok (the work is done; no
    // reason to discard it).
    if (result.status.code == FlowCode::Cancelled &&
        session.cancelToken().expired()) {
        result.status.code = FlowCode::DeadlineExceeded;
        result.status.message =
            "deadline exceeded (" + result.status.message + ")";
    }
    if (deadline && CancelToken::Clock::now() > *deadline + kStuckGrace) {
        const std::string stage =
            stageAt(result.trace, *deadline - flow_start);
        warn(str("server: job '", req.id, "' returned more than ",
                 kStuckGrace.count(), " s after its deadline (stage=",
                 stage.empty() ? "?" : stage,
                 "); stage may not poll its cancel token"));
    }

    if (result.status.ok()) {
        if (QPLACER_FAILPOINT("prior_store.capture")) {
            warn("server: prior capture for job '" + req.id +
                 "' dropped at failpoint 'prior_store.capture'");
        } else {
            auto captured = std::make_shared<const PriorLayout>(
                PriorLayout::capture(result.netlist));
            // put() journals + fsyncs (when persistent) before it
            // returns, so the layout is durable before the result
            // below is emitted: an acked prior is always recoverable.
            priors_->put(req.id, std::move(captured));
        }
    }

    JsonValue response = makeResult(req.id, jobReportJson(result, req.seed));
    if (req.wantLayout && result.status.ok())
        response.set("layout", layoutJson(result.netlist));
    emit(job.sink, response);

    if (options_.logging)
        inform("server: job '" + req.id + "' finished (" +
               flowCodeName(result.status.code) + ")");
}

void
PlacementServer::emit(const ResponseSink &sink, const JsonValue &response)
{
    if (QPLACER_FAILPOINT("server.emit")) {
        warn("server: response dropped at failpoint 'server.emit'");
        return;
    }
    std::lock_guard<std::mutex> lock(emitMu_);
    sink(response);
}

} // namespace qplacer
