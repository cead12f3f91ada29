#include "core/density.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace qplacer {

DensityModel::DensityModel(const Netlist &netlist, int bins, ThreadPool *pool)
    : netlist_(netlist),
      grid_(netlist.region(), bins, bins),
      solver_(bins, bins, netlist.region().width(),
              netlist.region().height(), pool),
      pool_(pool)
{
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

    // Each footprint's stencil, kept for the splat and the field gather
    // below.
    parallelFor(
        pool_, instances.size(),
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                const Instance &inst = instances[i];
                stencils_[i] = grid_.stencil(
                    Rect::fromCenter(positions[i], inst.paddedWidth(),
                                     inst.paddedHeight()));
            }
        },
        ThreadPool::kGrainMedium);

    // Rasterize charges; the density map stores charge per bin. Each
    // chunk owns a band of bin rows and splats every instance's part in
    // that band, in instance order, so every bin adds its charges in the
    // serial order whatever the split. Every band walks all instances,
    // so the instance count decides whether the pool wakes.
    std::vector<double> &bins = grid_.data();
    const auto rows = static_cast<std::size_t>(grid_.ny());
    const auto nx = static_cast<std::size_t>(grid_.nx());
    parallelFor(
        pool_, rows,
        [&](std::size_t row0, std::size_t row1) {
            std::fill(bins.begin() + row0 * nx, bins.begin() + row1 * nx, 0.0);
            for (std::size_t i = 0; i < instances.size(); ++i) {
                BinStencil band = stencils_[i];
                band.iy0 = std::max(band.iy0, static_cast<int>(row0));
                band.iy1 = std::min(band.iy1, static_cast<int>(row1) - 1);
                grid_.splat(band, instances[i].paddedArea(), bins.data());
            }
        },
        instances.size() < ThreadPool::kGrainMedium ? rows + 1 : 0);

    // Overflow: charge above the per-bin capacity.
    const double capacity = kTargetDensity * grid_.binArea();
    const std::size_t cells = bins.size();
    double over = 0.0;
    double total_charge = 0.0;
    for (const double q : bins) {
        over += std::max(0.0, q - capacity);
        total_charge += q;
    }
    overflow_ = total_charge > 0.0 ? over / total_charge : 0.0;

    // Normalize the map to charge density (charge / bin area) before the
    // Poisson solve so the field scale is resolution-independent.
    density_.resize(cells);
    const double inv_bin_area = 1.0 / grid_.binArea();
    parallelFor(
        pool_, cells,
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                density_[i] = bins[i] * inv_bin_area;
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
