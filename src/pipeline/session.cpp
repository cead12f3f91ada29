#include "pipeline/session.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <string>
#include <utility>

#include "pipeline/context.hpp"

namespace qplacer {
namespace {

/**
 * Records per-job PlaceProgress trajectories (portfolio probe runs).
 * Thread-safe for the batch pattern: each job index is driven by
 * exactly one worker at a time and the outer vector is preallocated.
 */
class TrajectoryRecorder final : public FlowObserver
{
  public:
    explicit TrajectoryRecorder(std::size_t jobs) : traj_(jobs) {}

    void
    onIteration(const FlowContext &ctx,
                const PlaceProgress &progress) override
    {
        traj_[static_cast<std::size_t>(ctx.jobIndex)].push_back(progress);
    }

    const std::vector<PlaceProgress> &
    of(std::size_t job) const
    {
        return traj_[job];
    }

    void
    clear()
    {
        for (auto &t : traj_)
            t.clear();
    }

  private:
    std::vector<std::vector<PlaceProgress>> traj_;
};

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

ThreadPool *
PlacementSession::innerPool(const FlowParams &params)
{
    // Human mode has no parallel stage; don't build (or keep alive) a
    // pool for it.
    if (params.mode == PlacerMode::Human)
        return nullptr;
    const int resolved = ThreadPool::resolveThreadCount(params.placer.threads);
    if (resolved <= 1)
        return nullptr;
    // Reuse the live pool whenever the size matches -- this is the
    // amortization a session exists for. A changed request rebuilds it,
    // so the job gets the parallelism it asked for (the results are the
    // same at any pool size).
    if (!inner_ || inner_->threads() != resolved)
        inner_ = std::make_unique<ThreadPool>(resolved);
    return inner_.get();
}

FlowResult
PlacementSession::runJob(const Topology &topo, const FlowParams &params,
                         int job_index, ThreadPool *pool, bool logging,
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

    ctx.jobIndex = job_index;
    ctx.pool = pool;
    ctx.observer = observer;
    ctx.cancel = &cancel_;
    ctx.logging = logging;
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

    if (!batch_ || batch_->threads() != workers)
        batch_ = std::make_unique<ThreadPool>(workers);

    // Every worker pulls the next unclaimed job (dynamic scheduling --
    // placements vary wildly in cost, so a static split would idle
    // half the pool on the tail).
    std::atomic<std::size_t> next{0};
    batch_->forChunks(static_cast<std::size_t>(workers),
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
    return runJob(topo, params, /*job_index=*/0, innerPool(params),
                  /*logging=*/true, observer_);
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
    return runJob(topo, params, /*job_index=*/0, innerPool(params),
                  /*logging=*/true, observer_, &stages, &state);
}

std::vector<FlowResult>
PlacementSession::runBatch(const std::vector<PlacementJob> &jobs)
{
    std::vector<JobRef> refs;
    refs.reserve(jobs.size());
    for (const PlacementJob &job : jobs)
        refs.push_back({&job.topo, &job.params});
    return runBatchRefs(refs);
}

std::vector<FlowResult>
PlacementSession::runBatch(const Topology &topo,
                           const std::vector<FlowParams> &jobs)
{
    std::vector<JobRef> refs;
    refs.reserve(jobs.size());
    for (const FlowParams &params : jobs)
        refs.push_back({&topo, &params});
    return runBatchRefs(refs);
}

std::vector<FlowResult>
PlacementSession::runBatchRefs(const std::vector<JobRef> &jobs)
{
    // A serial batch keeps each job's requested intra-placement thread
    // count. Concurrent jobs place single-threaded (inner pool = null):
    // nesting regions on one pool is illegal, and the workers already
    // keep the cores busy. Either way a job's result is the same as a
    // lone run of it. runJob never throws (stage errors land in the
    // per-job status), so one failing job cannot take down the batch.
    std::vector<FlowResult> results(jobs.size());
    forEachJob(jobs.size(), [&](std::size_t i, bool concurrent) {
        const FlowParams &params = *jobs[i].params;
        if (params.portfolio.seeds > 1) {
            results[i] = rejected(kOneSeedOnly);
            return;
        }
        results[i] = runJob(*jobs[i].topo, params, static_cast<int>(i),
                            concurrent ? nullptr : innerPool(params),
                            /*logging=*/!concurrent, observer_);
    });
    return results;
}

FlowResult
PlacementSession::runPortfolio(const Topology &topo,
                               const FlowParams &params)
{
    std::string error;
    const FlowParams normalized = params.normalized(error);
    if (!error.empty())
        return rejected(error);

    // The job's root span covers the probe rungs and every full run,
    // so its seconds are the job's wall clock; the winner's stage spans
    // are grafted beneath it at the end.
    Trace trace;
    Trace::Span job(&trace, kFlowSpan);
    const auto jobTrace = [&](FlowResult &result) {
        job.stop();
        trace.graft(result.trace, result.trace.find(Trace::kRoot, kFlowSpan),
                    trace.find(Trace::kRoot, kFlowSpan));
        result.trace = std::move(trace);
    };

    const int n = normalized.portfolio.seeds;
    PortfolioStats stats;
    stats.portfolio = true;
    stats.seeds = n;
    stats.candidates.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        // Seed offsets wrap mod 2^64 (unsigned arithmetic is defined);
        // n consecutive values are always distinct.
        stats.candidates[static_cast<std::size_t>(i)].seed =
            params.placer.seed + static_cast<std::uint64_t>(i);
    }

    std::vector<int> alive(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        alive[static_cast<std::size_t>(i)] = i;
    std::vector<char> probe_ok(static_cast<std::size_t>(n), 1);
    TrajectoryRecorder recorder(static_cast<std::size_t>(n));
    // Probes stop after place: the ranking needs the optimizer
    // trajectory, nothing downstream.
    const std::vector<FlowStage> probe_stages{kAssignStage, kBuildStage,
                                              kPlaceStage};

    // Every candidate run, probe or full, places with its own seed and
    // no pool: candidates may run concurrently.
    const auto candidate = [&](int ci) {
        FlowParams cand = params;
        cand.placer.seed = stats.candidates[static_cast<std::size_t>(ci)].seed;
        return cand;
    };

    // Successive-halving probe rungs: truncated placements at a
    // doubling iteration budget, ranked on the trajectory tails.
    long long checkpoint = normalized.portfolio.pruneAt;
    while (static_cast<int>(alive.size()) > 1 &&
           checkpoint < normalized.placer.maxIters &&
           !cancel_.cancelled()) {
        const int keep = std::max(
            1, static_cast<int>(std::ceil(
                   static_cast<double>(alive.size()) *
                   normalized.portfolio.keepFrac)));
        if (keep >= static_cast<int>(alive.size()))
            break; // keepFrac pins every candidate; probing buys nothing.

        recorder.clear();
        std::vector<FlowResult> probes(alive.size());
        forEachJob(alive.size(), [&](std::size_t k, bool) {
            FlowParams probe = candidate(alive[k]);
            probe.placer.maxIters = static_cast<int>(checkpoint);
            probes[k] = runJob(topo, probe, alive[k], nullptr,
                               /*logging=*/false, &recorder,
                               &probe_stages);
        });
        ++stats.rungs;

        for (std::size_t k = 0; k < alive.size(); ++k) {
            const std::size_t ci = static_cast<std::size_t>(alive[k]);
            probe_ok[ci] = probes[k].status.ok() ? 1 : 0;
            const auto &traj = recorder.of(ci);
            if (!traj.empty()) {
                stats.candidates[ci].probeOverflow = traj.back().overflow;
                stats.candidates[ci].probeHpwl = traj.back().hpwl;
            }
        }

        std::vector<int> order = alive;
        std::sort(order.begin(), order.end(), [&](int a, int b) {
            const auto &ca = stats.candidates[static_cast<std::size_t>(a)];
            const auto &cb = stats.candidates[static_cast<std::size_t>(b)];
            const std::size_t ia = static_cast<std::size_t>(a);
            const std::size_t ib = static_cast<std::size_t>(b);
            if (probe_ok[ia] != probe_ok[ib])
                return probe_ok[ia] > probe_ok[ib];
            if (ca.probeOverflow != cb.probeOverflow)
                return ca.probeOverflow < cb.probeOverflow;
            if (ca.probeHpwl != cb.probeHpwl)
                return ca.probeHpwl < cb.probeHpwl;
            return a < b;
        });
        std::vector<int> survivors(order.begin(), order.begin() + keep);
        // The base seed never gets pruned: its full run is exactly the
        // single-seed flow, so keeping it makes the portfolio's final
        // pick dominate single-seed quality by construction.
        if (std::find(survivors.begin(), survivors.end(), 0) ==
            survivors.end())
            survivors.push_back(0);
        std::sort(survivors.begin(), survivors.end());
        for (const int ci : alive) {
            if (std::find(survivors.begin(), survivors.end(), ci) ==
                survivors.end()) {
                stats.candidates[static_cast<std::size_t>(ci)]
                    .prunedAtIters = static_cast<int>(checkpoint);
            }
        }
        alive = std::move(survivors);
        checkpoint *= 2;
    }

    if (cancel_.cancelled()) {
        FlowResult cancelled;
        cancelled.status = {FlowCode::Cancelled, "portfolio",
                            "cancelled during portfolio probes"};
        cancelled.portfolioStats = std::move(stats);
        jobTrace(cancelled);
        return cancelled;
    }

    // Survivors run the complete flow (detailed stage included when
    // enabled), so the winner is bitwise-identical to a replay of its
    // seed. The session observer gets no events: per-candidate events
    // would interleave meaninglessly.
    std::vector<FlowResult> finals(alive.size());
    forEachJob(alive.size(), [&](std::size_t k, bool concurrent) {
        finals[k] = runJob(topo, candidate(alive[k]), static_cast<int>(k),
                           nullptr, /*logging=*/!concurrent, nullptr);
    });

    std::size_t winner_k = 0;
    bool have_winner = false;
    for (std::size_t k = 0; k < alive.size(); ++k) {
        const std::size_t ci = static_cast<std::size_t>(alive[k]);
        stats.candidates[ci].ranFull = true;
        if (!finals[k].status.ok())
            continue;
        stats.candidates[ci].finalHpwl = finals[k].netlist.hpwl();
        const auto better = [&](std::size_t a, std::size_t b) {
            // Prefer legal layouts, then lower HPWL, then lower offset.
            const FlowResult &ra = finals[a];
            const FlowResult &rb = finals[b];
            if (ra.legal.legal != rb.legal.legal)
                return ra.legal.legal;
            const double ha = stats.candidates[static_cast<std::size_t>(
                                                   alive[a])]
                                  .finalHpwl;
            const double hb = stats.candidates[static_cast<std::size_t>(
                                                   alive[b])]
                                  .finalHpwl;
            if (ha != hb)
                return ha < hb;
            return alive[a] < alive[b];
        };
        if (!have_winner || better(k, winner_k)) {
            winner_k = k;
            have_winner = true;
        }
    }
    // With no ok candidate the base seed's result (alive is sorted, so
    // k = 0 is the base) carries its own error status back.

    const std::size_t winner_ci =
        static_cast<std::size_t>(alive[winner_k]);
    stats.winnerSeed = stats.candidates[winner_ci].seed;
    stats.candidates[winner_ci].winner = true;
    FlowResult result = std::move(finals[winner_k]);
    result.portfolioStats = std::move(stats);
    jobTrace(result);
    return result;
}

} // namespace qplacer
