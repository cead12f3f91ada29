#include "pipeline/session.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <string>
#include <utility>

#include "pipeline/context.hpp"
#include "util/thread_pool.hpp"

namespace qplacer {
namespace {

/** Why runBatch and runIncremental reject a portfolio request. */
constexpr const char *kOneSeedOnly =
    "portfolio.seeds > 1: batch and incremental jobs place one seed; "
    "race seeds through run()";

/** A job that never ran: its parameters failed validation. */
FlowResult
rejected(std::string message)
{
    FlowResult result;
    result.status = {FlowCode::InvalidParams, "", std::move(message)};
    return result;
}

} // namespace

PlacementSession::PlacementSession(int workers)
    : workers_(workers)
{
}

FlowResult
PlacementSession::runJob(const Topology &topo, const FlowParams &params,
                         int job_index, bool concurrent,
                         FlowObserver *observer,
                         const std::vector<FlowStage> *stages,
                         IncrementalState *incremental)
{
    FlowContext ctx;
    ctx.topo = &topo;

    std::string error;
    ctx.params = params.normalized(error);
    if (!error.empty())
        return rejected(error);
    // Concurrent jobs already keep the cores busy, so each places
    // single-threaded; the layout is the same at any thread count.
    if (concurrent)
        ctx.params.placer.threads = 1;

    ctx.jobIndex = job_index;
    ctx.observer = observer;
    ctx.cancel = &cancel_;
    ctx.logging = !concurrent;
    ctx.incremental = incremental;
    runStages(ctx, stages ? *stages : makeDefaultStages(ctx.params));
    return std::move(ctx.result);
}

void
PlacementSession::forEachJob(
    std::size_t n, const std::function<void(std::size_t, bool)> &job)
{
    const int workers =
        std::min<int>(ThreadPool::resolveThreadCount(workers_),
                      static_cast<int>(n));
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            job(i, /*concurrent=*/false);
        return;
    }

    // Every worker pulls the next unclaimed job (dynamic scheduling --
    // placements vary wildly in cost, so a static split would idle
    // half the pool on the tail).
    std::atomic<std::size_t> next{0};
    ThreadPool pool(workers);
    pool.forChunks(static_cast<std::size_t>(workers),
                   [&](int, std::size_t, std::size_t) {
                       for (std::size_t i = next.fetch_add(1); i < n;
                            i = next.fetch_add(1))
                           job(i, /*concurrent=*/true);
                   });
}

FlowResult
PlacementSession::run(const Topology &topo, const FlowParams &params)
{
    // normalized() keeps portfolio.seeds as given; runPortfolio
    // rejects an invalid portfolio request through its own check.
    if (params.portfolio.seeds > 1)
        return runPortfolio(topo, params);
    return runJob(topo, params, /*job_index=*/0, /*concurrent=*/false,
                  observer_);
}

FlowResult
PlacementSession::runIncremental(const Topology &topo,
                                 const FlowParams &params,
                                 const PriorLayout &prior,
                                 const NetlistDelta &delta)
{
    if (params.mode == PlacerMode::Human)
        return rejected(
            "incremental re-place supports Qplacer/Classic modes only");
    if (params.portfolio.seeds > 1)
        return rejected(kOneSeedOnly);

    IncrementalState state;
    state.prior = &prior;
    state.delta = delta;
    const std::vector<FlowStage> stages = makeIncrementalStages();
    return runJob(topo, params, /*job_index=*/0, /*concurrent=*/false,
                  observer_, &stages, &state);
}

std::vector<FlowResult>
PlacementSession::runBatch(const Topology &topo,
                           const std::vector<FlowParams> &jobs)
{
    return runBatch(topo, jobs, observer_);
}

std::vector<FlowResult>
PlacementSession::runBatch(const Topology &topo,
                           const std::vector<FlowParams> &jobs,
                           FlowObserver *observer)
{
    // A serial batch keeps each job's requested intra-placement thread
    // count; concurrent jobs place single-threaded (runJob). Either way
    // a job's result is the same as a lone run of it. runJob never
    // throws (stage errors land in the per-job status), so one failing
    // job cannot take down the batch.
    std::vector<FlowResult> results(jobs.size());
    forEachJob(jobs.size(), [&](std::size_t i, bool concurrent) {
        if (jobs[i].portfolio.seeds > 1) {
            results[i] = rejected(kOneSeedOnly);
            return;
        }
        results[i] = runJob(topo, jobs[i], static_cast<int>(i),
                            concurrent, observer);
    });
    return results;
}

FlowResult
PlacementSession::runPortfolio(const Topology &topo,
                               const FlowParams &params)
{
    // Only the request as a whole can be an invalid portfolio (Human
    // mode); each candidate job normalizes its own copy.
    std::string error;
    params.normalized(error);
    if (!error.empty())
        return rejected(error);

    // The job's root span covers every candidate's run, so its seconds
    // are the job's wall clock; the winner's stage spans are grafted
    // beneath it at the end.
    Trace trace;
    Trace::Span job(&trace, kFlowSpan);

    // Each candidate is a plain one-seed job of the batch. Seed offsets
    // wrap mod 2^64 (unsigned arithmetic is defined); n consecutive
    // values are always distinct.
    const std::size_t n = static_cast<std::size_t>(params.portfolio.seeds);
    PortfolioStats stats;
    stats.portfolio = true;
    stats.seeds = params.portfolio.seeds;
    stats.candidates.resize(n);
    std::vector<FlowParams> candidates(n, params);
    for (std::size_t i = 0; i < n; ++i) {
        stats.candidates[i].seed = params.placer.seed + i;
        candidates[i].placer.seed = stats.candidates[i].seed;
        candidates[i].portfolio.seeds = 1;
    }
    // The session observer gets no events: per-candidate events would
    // interleave meaninglessly.
    std::vector<FlowResult> finals = runBatch(topo, candidates, nullptr);

    // Prefer legal layouts, then lower HPWL; the ascending scan keeps
    // the lower offset on a tie. A cancelled candidate leaves the
    // ranking partial, so its cancellation becomes the result; with no
    // ok candidate the base seed's result carries its own error back.
    const auto better = [&](std::size_t a, std::size_t b) {
        if (finals[a].legal.legal != finals[b].legal.legal)
            return finals[a].legal.legal;
        return stats.candidates[a].finalHpwl < stats.candidates[b].finalHpwl;
    };
    std::size_t winner = 0;
    bool have_winner = false;
    for (std::size_t i = 0; i < n; ++i) {
        PortfolioCandidate &cand = stats.candidates[i];
        if (finals[i].status.code == FlowCode::Cancelled) {
            winner = i;
            break;
        }
        if (!finals[i].status.ok())
            continue;
        cand.finalHpwl = finals[i].netlist.hpwl();
        if (!have_winner || better(i, winner)) {
            winner = i;
            have_winner = true;
        }
    }

    stats.winnerSeed = stats.candidates[winner].seed;
    stats.candidates[winner].winner = true;
    FlowResult result = std::move(finals[winner]);
    result.portfolioStats = std::move(stats);
    job.stop();
    trace.graft(result.trace, result.trace.find(Trace::kRoot, kFlowSpan),
                trace.find(Trace::kRoot, kFlowSpan));
    result.trace = std::move(trace);
    return result;
}

} // namespace qplacer
