#include "core/objective.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace qplacer {

namespace {

/** Wirelength smoothing gamma as a fraction of the region width. */
constexpr double kGammaFrac = 0.04;

/** Per-iteration multiplier of the density penalty. */
constexpr double kLambdaGrowth = 1.05;

/** Per-iteration multiplier of the frequency penalty. */
constexpr double kFreqLambdaGrowth = 1.05;

/**
 * Cap on the frequency penalty, as a multiple of its value at
 * activation. Keeps the engine in a stable compromise when full
 * separation is infeasible (crowded spectra), instead of oscillating.
 */
constexpr double kFreqLambdaMaxFactor = 300.0;

double
l1Norm(const std::vector<Vec2> &g)
{
    double acc = 0.0;
    for (const Vec2 &v : g)
        acc += std::abs(v.x) + std::abs(v.y);
    return acc;
}

} // namespace

PlacementObjective::PlacementObjective(const Netlist &netlist,
                                       const PlacerParams &params,
                                       const CrosstalkRule &rule,
                                       ThreadPool *pool)
    : netlist_(netlist),
      params_(params),
      pool_(pool),
      wirelength_(netlist,
                  std::max(1e-3, kGammaFrac * netlist.region().width()),
                  pool),
      density_(netlist, DensityModel::autoBinCount(netlist.numInstances()),
               pool)
{
    if (params.freqForce) {
        freqForce_ = std::make_unique<FreqForceModel>(
            netlist, rule.detuningThresholdHz, FreqForceModel::kCutoffFactor,
            pool_);
    }
    gammaBase_ = density_.grid().binWidth();

    netDegree_.assign(netlist.instances().size(), 0.0);
    for (const Net &net : netlist.nets()) {
        netDegree_[net.a] += net.weight;
        netDegree_[net.b] += net.weight;
    }
}

void
PlacementObjective::evaluate(const std::vector<Vec2> &positions,
                             std::vector<Vec2> &gradient)
{
    wirelength_.evaluate(positions, gradWl_);
    density_.evaluate(positions, gradDen_);
    if (freqForce_) {
        freqForce_->evaluate(positions, gradFreq_);
        // The truncated force is often dormant at the warm start (all
        // pairs isolated); its multiplier starts the first time it
        // produces a gradient.
        activate(freq_, params_.freqWeight, gradFreq_);
    } else {
        gradFreq_.assign(positions.size(), Vec2());
    }

    gradient.assign(positions.size(), Vec2());
    const auto &instances = netlist_.instances();
    parallelFor(
        pool_, positions.size(),
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                const Vec2 g = gradWl_[i] + gradDen_[i] * lambda_ +
                               gradFreq_[i] * freq_.lambda;
                // Jacobi preconditioner (ePlace): net degree + lambda *
                // charge.
                const double h = std::max(
                    1.0,
                    netDegree_[i] + lambda_ * instances[i].paddedArea());
                gradient[i] = g / h;
            }
        },
        ThreadPool::kGrainFine);
}

void
PlacementObjective::initPenalties(const std::vector<Vec2> &positions)
{
    wirelength_.evaluate(positions, gradWl_);
    density_.evaluate(positions, gradDen_);
    const double wl_norm = l1Norm(gradWl_);
    const double den_norm = l1Norm(gradDen_);
    lambda_ = den_norm > 1e-12 ? wl_norm / den_norm : 0.0;

    freq_ = LazyPenalty();
    if (freqForce_) {
        freqForce_->evaluate(positions, gradFreq_);
        activate(freq_, params_.freqWeight, gradFreq_);
    }
}

void
PlacementObjective::activate(LazyPenalty &penalty, double weight,
                             const std::vector<Vec2> &grad) const
{
    if (penalty.live)
        return;
    const double norm = l1Norm(grad);
    if (norm > 1e-12) {
        penalty.lambda = weight * l1Norm(gradWl_) / norm;
        penalty.init = penalty.lambda;
        penalty.live = true;
    }
}

void
PlacementObjective::growPenalties()
{
    lambda_ *= kLambdaGrowth;
    if (freq_.live)
        freq_.lambda = std::min(freq_.lambda * kFreqLambdaGrowth,
                                freq_.init * kFreqLambdaMaxFactor);
}

void
PlacementObjective::updateGamma(double overflow)
{
    // Large overflow -> heavy smoothing (stable global view); as the
    // design spreads, sharpen toward true HPWL.
    const double gamma =
        gammaBase_ * (1.0 + 9.0 * std::clamp(overflow, 0.0, 1.0));
    wirelength_.setGamma(gamma);
}

} // namespace qplacer
