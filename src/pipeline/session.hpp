/**
 * @file
 * PlacementSession: the one front end of the staged flow (stage.hpp).
 * Every placement -- a single run, a portfolio, a batch, an
 * incremental re-place -- goes through a session.
 *
 * A session holds what outlives one placement: the observer, the
 * cancellation token and the batch width. Each job builds the thread
 * pools it runs on and joins them before it returns. Errors never
 * throw: invalid parameters, stage failures and cancellation come back
 * in FlowResult::status. It also streams FlowObserver progress,
 * cancels cooperatively, and runs independent jobs concurrently:
 *
 *   PlacementSession session(8);            // 8 concurrent jobs
 *   FlowResult r = session.run(topo, params);
 *   std::vector<FlowParams> jobs = ...;           // one params each
 *   auto results = session.runBatch(topo, jobs);  // all, concurrently
 *
 * Determinism contract: runBatch(topo, jobs) is **bitwise-identical** to
 * running each job alone through run() with the same parameters, in
 * this session or a fresh one (a batch job places its own seed only;
 * one with portfolio.seeds > 1 is rejected). A placement's bits depend
 * on its seed, never on its thread count (ARCHITECTURE.md,
 * "Determinism"), so how jobs share the cores does not matter: with
 * workers > 1 each job places with placer.threads = 1 (parallelism
 * across jobs instead of inside one); with workers <= 1 jobs run in
 * order and keep their requested intra-job thread count.
 */

#ifndef QPLACER_PIPELINE_SESSION_HPP
#define QPLACER_PIPELINE_SESSION_HPP

#include <cstddef>
#include <functional>
#include <vector>

#include "pipeline/flow.hpp"
#include "pipeline/incremental.hpp"
#include "pipeline/observer.hpp"
#include "topology/topology.hpp"
#include "util/cancel.hpp"

namespace qplacer {

/** Reusable staged-flow engine; see the file header for the contract. */
class PlacementSession
{
  public:
    /**
     * @param workers Concurrent jobs in runBatch and the portfolio
     *                (not intra-placement threads). 0 = hardware
     *                concurrency, capped like ThreadPool's auto choice;
     *                1 = serial.
     */
    explicit PlacementSession(int workers = 0);

    /**
     * Place @p topo cold. With params.portfolio.seeds > 1 this races
     * the seeds as a multi-start portfolio: seeds
     * placer.seed .. placer.seed + seeds - 1 (wrapping mod 2^64) run
     * the complete flow -- including the detailed stage when
     * detailed.iters > 0 -- as one batch (runBatch's scheduling and
     * determinism), and the best final layout (legal first, then
     * lowest HPWL, then lowest seed offset) is returned with
     * PortfolioStats attached. A cancelled candidate cancels the
     * portfolio: its result (status Cancelled) comes back instead of a
     * winner of a partial ranking.
     *
     * Portfolio determinism: every candidate places with its own seed,
     * so the winner is bitwise-identical to a single-seed run of that
     * seed (with the same detailed knobs). The base seed is a
     * candidate, so the portfolio result is never worse than the
     * single-seed flow. The session's observer sees no events while
     * candidates run (per-candidate events would interleave
     * meaninglessly). The result's trace root spans the whole job,
     * every candidate's run included; the stages beneath it are the
     * winner's.
     */
    FlowResult run(const Topology &topo, const FlowParams &params);

    /**
     * Place @p topo under each of @p jobs (a seed sweep, a knob
     * study), `workers` at a time, on a pool the call builds. Results
     * arrive indexed like @p jobs; each job's outcome (including
     * per-job errors) is in its FlowResult::status.
     * Cancellation applies to the whole batch: jobs already running
     * stop at their next poll, jobs not yet started report Cancelled
     * without running. Each job places its own seed: a job with
     * params.portfolio.seeds > 1 comes back InvalidParams without
     * running (race seeds through run()).
     */
    std::vector<FlowResult> runBatch(const Topology &topo,
                                     const std::vector<FlowParams> &jobs);

    /**
     * Incremental re-place (incremental.hpp): place @p topo warm-
     * started from @p prior, re-placing only the @p delta closure. An
     * empty delta on an unchanged topology reproduces the prior layout
     * exactly (bitwiseSameLayout); a small delta re-solves briefly
     * (params.incremental.maxIters) and legalizes every instance.
     * Non-throwing like run(); Human mode and
     * params.portfolio.seeds > 1 are rejected via status.
     */
    FlowResult runIncremental(const Topology &topo, const FlowParams &params,
                              const PriorLayout &prior,
                              const NetlistDelta &delta = {});

    /**
     * Observe stage and iteration progress (borrowed; null to detach).
     * With workers > 1 callbacks fire concurrently from pool threads;
     * the observer must be thread-safe (FlowContext::jobIndex tells
     * jobs apart).
     */
    void setObserver(FlowObserver *observer) { observer_ = observer; }

    /**
     * The session's cancellation token. cancel() stops the current
     * run/batch at the next poll point; reset() re-arms the session
     * for further work.
     */
    CancelToken &cancelToken() { return cancel_; }

  private:
    /**
     * The public runBatch and the portfolio's batch; @p observer
     * (borrowed, may be null) sees every job.
     */
    std::vector<FlowResult> runBatch(const Topology &topo,
                                     const std::vector<FlowParams> &jobs,
                                     FlowObserver *observer);

    /** The multi-start portfolio run() dispatches to. */
    FlowResult runPortfolio(const Topology &topo, const FlowParams &params);

    /**
     * Execute one job on the calling thread: normalize @p params
     * (failing validation returns InvalidParams without running), then
     * drive @p stages, or makeDefaultStages of the normalized params
     * when @p stages is null. A @p concurrent job places with
     * placer.threads = 1 and logs no inform() chatter; @p incremental
     * is the warm-start state, null for a cold run. Never throws:
     * stage errors land in the status.
     */
    FlowResult runJob(const Topology &topo, const FlowParams &params,
                      int job_index, bool concurrent,
                      FlowObserver *observer,
                      const std::vector<FlowStage> *stages = nullptr,
                      IncrementalState *incremental = nullptr);

    /**
     * Call @p job(i, concurrent) for i in [0, n). With fewer than two
     * batch workers the jobs run serially, in order, on this thread
     * (concurrent = false); otherwise the workers of a pool built for
     * the call pull them dynamically (concurrent = true).
     */
    void forEachJob(std::size_t n,
                    const std::function<void(std::size_t, bool)> &job);

    int workers_;
    FlowObserver *observer_ = nullptr;
    CancelToken cancel_;
};

} // namespace qplacer

#endif // QPLACER_PIPELINE_SESSION_HPP
