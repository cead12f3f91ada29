#include "core/placer.hpp"

#include <vector>

#include "core/nesterov.hpp"
#include "core/objective.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qplacer {

namespace {

/** Iterations without an overflow improvement that end the loop. */
constexpr int kPatience = 250;

} // namespace

GlobalPlacer::GlobalPlacer(PlacerParams params, CrosstalkRule rule)
    : params_(params), rule_(rule)
{
}

PlaceResult
GlobalPlacer::place(Netlist &netlist, const PlaceMonitor &monitor) const
{
    PlaceResult result;

    const auto &instances = netlist.instances();
    const std::size_t n = instances.size();
    if (n == 0)
        fatal("GlobalPlacer: empty netlist");

    // Initial positions: the builder's warm start plus a small jitter to
    // break exact symmetries (stacked segments).
    Rng rng(params_.seed);
    std::vector<Vec2> positions(n);
    const double jitter =
        params_.jitterFrac * netlist.region().width();
    for (std::size_t i = 0; i < n; ++i) {
        positions[i] = instances[i].pos +
                       Vec2(rng.gaussian(0.0, jitter),
                            rng.gaussian(0.0, jitter));
    }

    std::vector<Vec2> half_sizes(n);
    for (std::size_t i = 0; i < n; ++i) {
        half_sizes[i] = Vec2(instances[i].paddedWidth() / 2.0,
                             instances[i].paddedHeight() / 2.0);
    }

    // One pool for the whole run; every model shares it so the hot
    // path never spawns threads mid-iteration.
    ThreadPool pool(params_.threads);
    ThreadPool *pool_ptr = pool.threads() > 1 ? &pool : nullptr;

    PlacementObjective objective(netlist, params_, rule_, pool_ptr);
    NesterovOptimizer optimizer(netlist.region(), half_sizes, 0.05,
                                pool_ptr);
    optimizer.reset(positions);
    objective.initPenalties(optimizer.lookahead());

    std::vector<Vec2> gradient;
    double overflow = 1.0;
    double best_overflow = 1.0;
    int since_improvement = 0;
    for (int iter = 0; iter < params_.maxIters; ++iter) {
        // Cooperative cancellation: poll at the top so a cancelled run
        // never pays for another full objective evaluation.
        if (monitor.cancel && monitor.cancel->cancelled()) {
            result.cancelled = true;
            break;
        }
        objective.updateGamma(overflow);
        objective.evaluate(optimizer.lookahead(), gradient);
        overflow = objective.overflow();
        ++result.iterations; // the evaluation that stops the run counts

        if (monitor.onIteration) {
            const double hpwl = netlist.hpwl(optimizer.lookahead());
            monitor.onIteration({iter, overflow, hpwl});
        }

        if (iter >= params_.minIters && overflow < params_.stopOverflow) {
            result.converged = true;
            break;
        }
        // Plateau detection: the penalty equilibrium has been reached
        // and further iterations only churn the layout.
        if (overflow < best_overflow - 1e-3) {
            best_overflow = overflow;
            since_improvement = 0;
        } else if (++since_improvement >= kPatience &&
                   iter >= params_.minIters) {
            break;
        }
        optimizer.step(gradient);
        objective.growPenalties();
    }

    const auto &solution = optimizer.solution();
    for (std::size_t i = 0; i < n; ++i)
        netlist.instance(static_cast<int>(i)).pos = solution[i];
    netlist.clampIntoRegion();

    result.finalOverflow = overflow;
    result.finalHpwl = netlist.hpwl(solution);
    debug(str("global place: ", result.iterations, " iters, overflow ",
              result.finalOverflow, ", HPWL ", result.finalHpwl));
    return result;
}

} // namespace qplacer
