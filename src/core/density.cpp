#include "core/density.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

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

double
DensityModel::evaluate(const std::vector<Vec2> &positions,
                       std::vector<Vec2> &gradient)
{
    const auto &instances = netlist_.instances();
    if (positions.size() != instances.size())
        panic("DensityModel::evaluate: position count mismatch");

    gradient.assign(positions.size(), Vec2());

    // Rasterize charges; the density map stores charge per bin. Each
    // chunk splats into its own grid, and the grids are summed bin-wise
    // in chunk order (deterministic for a fixed thread count).
    grid_.clear();
    const int splat_chunks = parallelChunkCount(
        pool_, instances.size(), ThreadPool::kGrainMedium);
    // Chunks 1..k-1 accumulate into private grids (allocated on first
    // threaded use; chunk 0 writes straight into grid_).
    if (splat_chunks > 1 &&
        splatScratch_.size() <
            static_cast<std::size_t>(splat_chunks - 1)) {
        splatScratch_.assign(static_cast<std::size_t>(splat_chunks - 1),
                             grid_);
    }
    parallelForChunks(
        pool_, instances.size(),
        [&](int chunk, std::size_t begin, std::size_t end) {
            BinGrid &g = chunk == 0 ? grid_ : splatScratch_[chunk - 1];
            if (chunk != 0)
                g.clear();
            for (std::size_t i = begin; i < end; ++i) {
                const Instance &inst = instances[i];
                const Rect fp =
                    Rect::fromCenter(positions[i], inst.paddedWidth(),
                                     inst.paddedHeight());
                g.splat(fp, inst.paddedArea());
            }
        },
        ThreadPool::kGrainMedium);
    const std::size_t cells = grid_.data().size();
    if (splat_chunks > 1) {
        // Sum only the chunks that actually held instances, in chunk
        // order; a chunk that was empty never cleared its grid.
        std::vector<const double *> parts;
        for (int c = 1; c < splat_chunks; ++c) {
            const std::size_t n = instances.size();
            if (ThreadPool::chunkBegin(n, splat_chunks, c) <
                ThreadPool::chunkBegin(n, splat_chunks, c + 1))
                parts.push_back(splatScratch_[c - 1].data().data());
        }
        parallelFor(
            pool_, cells,
            [&](std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) {
                    double q = grid_.data()[i];
                    for (const double *part : parts)
                        q += part[i];
                    grid_.data()[i] = q;
                }
            },
            ThreadPool::kGrainFine);
    }

    // Overflow: charge above the per-bin capacity.
    const double capacity = targetDensity_ * grid_.binArea();
    const int chunks = parallelChunks(pool_);
    std::vector<double> over_part(static_cast<std::size_t>(chunks), 0.0);
    std::vector<double> charge_part(static_cast<std::size_t>(chunks), 0.0);
    parallelForChunks(
        pool_, cells,
        [&](int chunk, std::size_t begin, std::size_t end) {
            double over = 0.0;
            double charge = 0.0;
            for (std::size_t i = begin; i < end; ++i) {
                const double q = grid_.data()[i];
                over += std::max(0.0, q - capacity);
                charge += q;
            }
            over_part[chunk] = over;
            charge_part[chunk] = charge;
        },
        ThreadPool::kGrainFine);
    double over = 0.0;
    double total_charge = 0.0;
    for (int c = 0; c < chunks; ++c) {
        over += over_part[c];
        total_charge += charge_part[c];
    }
    overflow_ = total_charge > 0.0 ? over / total_charge : 0.0;

    // Normalize the map to charge density (charge / bin area) before the
    // Poisson solve so the field scale is resolution-independent.
    std::vector<double> density = grid_.data();
    const double inv_bin_area = 1.0 / grid_.binArea();
    parallelFor(
        pool_, cells,
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                density[i] *= inv_bin_area;
        },
        ThreadPool::kGrainFine);

    PoissonSolver::Solution sol = solver_.solve(density);

    // Energy and per-instance gradient: sample psi / xi over the
    // footprint (area-weighted average over overlapped bins).
    BinGrid psi(grid_.region(), grid_.nx(), grid_.ny());
    BinGrid ex(grid_.region(), grid_.nx(), grid_.ny());
    BinGrid ey(grid_.region(), grid_.nx(), grid_.ny());
    psi.data() = std::move(sol.potential);
    ex.data() = std::move(sol.fieldX);
    ey.data() = std::move(sol.fieldY);

    // Instances are sampled independently; only the energy needs a
    // chunk-ordered reduction.
    return parallelReduce(
        pool_, instances.size(),
        [&](std::size_t begin, std::size_t end) {
            double energy = 0.0;
            for (std::size_t i = begin; i < end; ++i) {
                const Instance &inst = instances[i];
                const double q = inst.paddedArea();
                const Rect fp =
                    Rect::fromCenter(positions[i], inst.paddedWidth(),
                                     inst.paddedHeight());
                energy += q * psi.sample(fp);
                // d(energy)/dx = -q * xi_x (descending moves along the
                // field).
                gradient[i].x = -q * ex.sample(fp);
                gradient[i].y = -q * ey.sample(fp);
            }
            return energy;
        },
        ThreadPool::kGrainMedium);
}

} // namespace qplacer
