#include "core/density.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace qplacer {

DensityModel::DensityModel(const Netlist &netlist, int bins,
                           double target_density, ThreadPool *pool)
    : netlist_(netlist),
      grid_(netlist.region(), bins, bins),
      solver_(bins, bins, netlist.region().width(),
              netlist.region().height(), pool),
      targetDensity_(target_density),
      pool_(pool)
{
    if (target_density <= 0.0 || target_density > 1.0)
        fatal("DensityModel: target density must be in (0, 1]");
}

int
DensityModel::autoBinCount(int num_instances)
{
    // Roughly one bin per instance, clamped to [32, 256].
    int bins = 32;
    while (bins * bins < num_instances && bins < 256)
        bins *= 2;
    return bins;
}

void
DensityModel::evaluate(const std::vector<Vec2> &positions,
                       std::vector<Vec2> &gradient)
{
    const auto &instances = netlist_.instances();
    if (positions.size() != instances.size())
        panic("DensityModel::evaluate: position count mismatch");

    gradient.resize(positions.size());
    stencils_.resize(instances.size());

    // Rasterize charges; the density map stores charge per bin. Each
    // footprint's stencil is kept for the field gather below.
    parallelScatter(
        pool_, instances.size(), std::span<double>(grid_.data()),
        [&](int, std::size_t begin, std::size_t end, double *bins) {
            for (std::size_t i = begin; i < end; ++i) {
                const Instance &inst = instances[i];
                stencils_[i] = grid_.stencil(
                    Rect::fromCenter(positions[i], inst.paddedWidth(),
                                     inst.paddedHeight()));
                grid_.splat(stencils_[i], inst.paddedArea(), bins);
            }
        },
        ThreadPool::kGrainMedium);

    // Overflow: charge above the per-bin capacity.
    const double capacity = targetDensity_ * grid_.binArea();
    const std::size_t cells = grid_.data().size();
    const auto [over, total_charge] = parallelReduce(
        pool_, cells,
        [&](std::size_t begin, std::size_t end) {
            std::array<double, 2> sums{};
            for (std::size_t i = begin; i < end; ++i) {
                const double q = grid_.data()[i];
                sums[0] += std::max(0.0, q - capacity);
                sums[1] += q;
            }
            return sums;
        },
        ThreadPool::kGrainFine);
    overflow_ = total_charge > 0.0 ? over / total_charge : 0.0;

    // Normalize the map to charge density (charge / bin area) before the
    // Poisson solve so the field scale is resolution-independent.
    density_.resize(cells);
    const double inv_bin_area = 1.0 / grid_.binArea();
    parallelFor(
        pool_, cells,
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                density_[i] = grid_.data()[i] * inv_bin_area;
        },
        ThreadPool::kGrainFine);

    solver_.solve(density_, field_);

    // Per-instance gradient: xi averaged over the footprint's stencil
    // (overlap-weighted over its bins), both axes in one walk.
    parallelFor(
        pool_, instances.size(),
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                const double q = instances[i].paddedArea();
                const Vec2 xi = grid_.gather(stencils_[i],
                                             field_.fieldX.data(),
                                             field_.fieldY.data());
                // d(energy)/dx = -q * xi_x (descending moves along the
                // field).
                gradient[i].x = -q * xi.x;
                gradient[i].y = -q * xi.y;
            }
        },
        ThreadPool::kGrainMedium);
}

} // namespace qplacer
