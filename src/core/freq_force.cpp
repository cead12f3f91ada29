#include "core/freq_force.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace qplacer {

namespace {

/**
 * Relative slack on the squared neighbour distance: a pair is handed to
 * the pair body if it is within its radius up to this margin, and the
 * body's own `d >= radius` test (on the hypot distance) decides. The
 * slack only has to absorb the rounding gap between hypot and the
 * squared norm.
 */
constexpr double kRadiusSlack = 1e-9;

/** Grid cells allowed per instance before the cell size grows. */
constexpr double kMaxCellsPerInstance = 4.0;

bool
isFinite(Vec2 p)
{
    return std::isfinite(p.x) && std::isfinite(p.y);
}

/** Grid column (or row) of coordinate @p x, clamped to [0, n). */
int
cellIndex(double x, double origin, double cell, int n)
{
    return std::clamp(static_cast<int>((x - origin) / cell), 0, n - 1);
}

} // namespace

FreqForceModel::FreqForceModel(const Netlist &netlist, double threshold_hz,
                               double cutoff_factor, ThreadPool *pool)
    : freqs_(netlist.frequencies()),
      groups_(netlist.resonatorGroups()),
      thresholdHz_(threshold_hz),
      cutoffFactor_(cutoff_factor),
      pool_(pool)
{
    if (cutoff_factor <= 0.0)
        fatal("FreqForceModel: non-positive cutoff factor");
    charge_.resize(netlist.instances().size());
    for (std::size_t i = 0; i < charge_.size(); ++i)
        charge_[i] = std::sqrt(netlist.instances()[i].paddedArea());
    byFreq_.resize(freqs_.size());
    std::iota(byFreq_.begin(), byFreq_.end(), 0);
    std::stable_sort(byFreq_.begin(), byFreq_.end(),
                     [&](std::int32_t a, std::int32_t b) {
                         return freqs_[a] < freqs_[b];
                     });

    // A new band starts wherever two consecutive frequencies fail the
    // resonance test (same subtraction, same comparison). Rounded
    // subtraction is monotone, so any two instances on either side of
    // that gap are at least as far apart: no resonant pair crosses it.
    bandOf_.resize(byFreq_.size());
    double max_charge = 0.0;
    for (std::size_t k = 0; k < byFreq_.size(); ++k) {
        const std::int32_t i = byFreq_[k];
        if (k == 0 ||
            freqs_[i] - freqs_[byFreq_[k - 1]] >= thresholdHz_) {
            bands_.push_back(Band{k, k, 0.0});
            max_charge = 0.0;
        }
        max_charge = std::max(max_charge, charge_[i]);
        bands_.back().end = k + 1;
        bands_.back().radius = cutoffFactor_ * 2.0 * max_charge;
        bandOf_[i] = static_cast<std::int32_t>(bands_.size() - 1);
    }
    grids_.resize(bands_.size());
}

void
FreqForceModel::bucketPositions(const std::vector<Vec2> &positions) const
{
    // Each band gets a grid over its own bounding box whose cell is the
    // band's largest pair radius, so a query spans at most 3x3 cells.
    // Far-flung positions would make that grid huge; coarsen it to
    // O(band size) cells (a coarser grid only adds candidates). The
    // bands' cells are numbered consecutively.
    std::size_t cells = 0;
    for (std::size_t b = 0; b < bands_.size(); ++b) {
        const Band &band = bands_[b];
        Grid &grid = grids_[b];
        grid = Grid();
        grid.base = cells;
        Vec2 hi(-HUGE_VAL, -HUGE_VAL);
        grid.lo = Vec2(HUGE_VAL, HUGE_VAL);
        for (std::size_t k = band.begin; k < band.end; ++k) {
            const Vec2 &p = positions[byFreq_[k]];
            if (!isFinite(p))
                continue;
            grid.lo = Vec2(std::min(grid.lo.x, p.x), std::min(grid.lo.y, p.y));
            hi = Vec2(std::max(hi.x, p.x), std::max(hi.y, p.y));
        }
        if (grid.lo.x > hi.x || !(band.radius > 0.0))
            continue; // nx = 0: nothing in the band can interact
        const double w = hi.x - grid.lo.x;
        const double h = hi.y - grid.lo.y;
        const double max_cells =
            kMaxCellsPerInstance * static_cast<double>(band.end - band.begin);
        grid.cell = std::max({band.radius, std::sqrt(w * h / max_cells),
                              w / max_cells, h / max_cells});
        grid.nx = static_cast<int>(w / grid.cell) + 1;
        grid.ny = static_cast<int>(h / grid.cell) + 1;
        cells += static_cast<std::size_t>(grid.nx) * grid.ny;
    }

    // One counting sort by cell, filled in frequency order so every
    // cell's slots ascend in frequency.
    cellOf_.resize(positions.size());
    cellStart_.assign(cells + 1, 0);
    for (std::size_t b = 0; b < bands_.size(); ++b) {
        const Grid &grid = grids_[b];
        for (std::size_t k = bands_[b].begin; k < bands_[b].end; ++k) {
            const std::int32_t i = byFreq_[k];
            const Vec2 &p = positions[i];
            if (grid.nx == 0 || !isFinite(p)) {
                cellOf_[i] = -1;
                continue;
            }
            const int ix = cellIndex(p.x, grid.lo.x, grid.cell, grid.nx);
            const int iy = cellIndex(p.y, grid.lo.y, grid.cell, grid.ny);
            cellOf_[i] = static_cast<std::int32_t>(
                grid.base + static_cast<std::size_t>(iy) * grid.nx + ix);
            ++cellStart_[cellOf_[i] + 1];
        }
    }
    for (std::size_t c = 0; c < cells; ++c)
        cellStart_[c + 1] += cellStart_[c];
    slots_.resize(static_cast<std::size_t>(cellStart_[cells]));
    for (std::int32_t i : byFreq_) {
        if (cellOf_[i] >= 0)
            slots_[cellStart_[cellOf_[i]]++] =
                Slot{freqs_[i], positions[i], i};
    }
    // The fill advanced each start to the next cell's; shift back.
    for (std::size_t c = cells; c > 0; --c)
        cellStart_[c] = cellStart_[c - 1];
    cellStart_[0] = 0;
}

void
FreqForceModel::resonantNeighbours(const std::vector<Vec2> &positions,
                                   std::size_t i,
                                   std::vector<std::int32_t> &out) const
{
    // Every instance resonant with i is in i's band, within the band's
    // radius.
    const Grid &grid = grids_[bandOf_[i]];
    const Vec2 p = positions[i];
    const double f = freqs_[i];
    const double r = bands_[bandOf_[i]].radius * (1.0 + kRadiusSlack);
    const int ix0 = cellIndex(p.x - r, grid.lo.x, grid.cell, grid.nx);
    const int ix1 = cellIndex(p.x + r, grid.lo.x, grid.cell, grid.nx);
    const int iy0 = cellIndex(p.y - r, grid.lo.y, grid.cell, grid.ny);
    const int iy1 = cellIndex(p.y + r, grid.lo.y, grid.cell, grid.ny);
    for (int iy = iy0; iy <= iy1; ++iy) {
        // Cells ix0..ix1 of one row are adjacent in slots_, so the row
        // is one run. Frequencies ascend only within a cell, so every
        // slot takes the two-sided resonance test |f - f_j| < Delta_c.
        const std::size_t row =
            grid.base + static_cast<std::size_t>(iy) * grid.nx;
        const Slot *s = slots_.data() + cellStart_[row + ix0];
        const Slot *end = slots_.data() + cellStart_[row + ix1 + 1];
        for (; s != end; ++s) {
            const std::int32_t j = s->id;
            if (static_cast<std::size_t>(j) <= i)
                continue; // i itself, or a pair its lower end forms
            if (!(f - s->freqHz < thresholdHz_ &&
                  s->freqHz - f < thresholdHz_))
                continue; // not resonant
            if (groups_[i] >= 0 && groups_[i] == groups_[j])
                continue; // same resonator: excluded by (1 - delta)
            const double radius = cutoffFactor_ * (charge_[i] + charge_[j]);
            if ((p - s->pos).normSq() > radius * radius * (1.0 + kRadiusSlack))
                continue;
            out.push_back(j);
        }
    }
}

void
FreqForceModel::evaluate(const std::vector<Vec2> &positions,
                         std::vector<Vec2> &gradient) const
{
    if (positions.size() != charge_.size())
        panic("FreqForceModel::evaluate: position count mismatch");
    const std::size_t n = positions.size();
    bucketPositions(positions);

    // Each pair (i, j), i < j, is formed once, by i, which stores its
    // push delta * coef in its chunk's lane, partners ascending. Every
    // lane starts empty, so a chunk the pool skips contributes nothing.
    const auto chunks = static_cast<std::size_t>(
        parallelChunkCount(pool_, n, ThreadPool::kGrainMedium));
    if (lanes_.size() < chunks)
        lanes_.resize(chunks);
    for (PairLane &lane : lanes_)
        lane.pairs.clear();
    parallelForChunks(
        pool_, n,
        [&](int chunk, std::size_t begin, std::size_t end) {
            PairLane &lane = lanes_[chunk];
            for (std::size_t i = begin; i < end; ++i) {
                lane.near.clear();
                if (cellOf_[i] >= 0) // else a non-finite position
                    resonantNeighbours(positions, i, lane.near);
                std::sort(lane.near.begin(), lane.near.end());
                for (std::int32_t m : lane.near) {
                    const auto j = static_cast<std::size_t>(m);
                    const double s = charge_[i] * charge_[j];
                    const double radius =
                        cutoffFactor_ * (charge_[i] + charge_[j]);
                    Vec2 delta = positions[i] - positions[j];
                    double d = delta.norm();
                    if (d >= radius)
                        continue; // already spatially isolated
                    // Clamp so coincident instances still get a finite,
                    // directed push (deterministic tie-break direction
                    // from the indices).
                    const double d_min =
                        0.25 * (charge_[i] + charge_[j]);
                    if (d < 1e-9) {
                        const double ang = 0.7548776662 *
                                           static_cast<double>(i * 31 + j);
                        delta = Vec2(std::cos(ang), std::sin(ang)) * d_min;
                        d = d_min;
                    } else if (d < d_min) {
                        delta = delta * (d_min / d);
                        d = d_min;
                    }
                    // dU/dx_i = -s (x_i - x_j) / d^3 = -dU/dx_j.
                    const double coef = -s / (d * d * d);
                    lane.pairs.push_back(
                        Pair{static_cast<std::int32_t>(i), m, delta * coef});
                }
            }
        },
        ThreadPool::kGrainMedium);

    // The lanes in chunk order hold the pairs by lower end, then higher:
    // scattering them serially is the serial pair loop, sums and all.
    gradient.assign(n, Vec2());
    for (std::size_t c = 0; c < chunks; ++c) {
        for (const Pair &pair : lanes_[c].pairs) {
            gradient[pair.i] += pair.push;
            gradient[pair.j] -= pair.push;
        }
    }
}

} // namespace qplacer
