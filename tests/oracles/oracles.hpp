/**
 * @file
 * Test-only oracles: the straightforward pre-scaling implementations
 * the production engines replaced, kept so the equivalence suites can
 * prove the fast code paths bit for bit identical to them. Nothing in
 * src/ links this library.
 *
 *  - DSATUR by linear scan, the all-pairs resonator share graph and the
 *    all-pairs violation count (freq/test_assign_equivalence);
 *  - the sequential-append netlist builder (freq/test_assign_equivalence,
 *    netlist/test_builder_scale);
 *  - the plan-free FFT and DCT/DST kernels, their row/column passes
 *    and the O(N^2) DCT references (math/test_fft, math/test_dct,
 *    math/test_dct_plan);
 *  - the frequency force over an all-distance collision map
 *    (core/test_freq_force_equivalence), whose potential is also the
 *    energy the production force's finite-difference check differences
 *    (core/test_freq_force);
 *  - the closed-form value of the smooth wirelength, which the
 *    gradient-only production term never forms (core/test_wirelength);
 *  - the bin-by-bin splat and field sample over per-bin rectangles
 *    that the density stencil walk replaced (geometry/test_bin_stencil);
 *  - the annealer's whole-layout objective by an all-pairs scan
 *    (legal/test_anneal);
 *  - the Nesterov step's largest gradient norm by a std::hypot over
 *    every entry (core/test_nesterov);
 *  - the near-pair sweep, the hotspot pairs and the minimum embedding
 *    spacing by all-pairs scans (geometry/test_near_pairs).
 */

#ifndef QPLACER_TESTS_ORACLES_HPP
#define QPLACER_TESTS_ORACLES_HPP

#include <cstdint>
#include <utility>
#include <vector>

#include "eval/hotspot.hpp"
#include "freq/assigner.hpp"
#include "geometry/bin_grid.hpp"
#include "geometry/vec2.hpp"
#include "math/dct_plan.hpp"
#include "netlist/netlist.hpp"
#include "netlist/partition.hpp"
#include "topology/graph.hpp"
#include "topology/topology.hpp"

namespace qplacer {

class ThreadPool;

namespace oracle {

/**
 * DSATUR with an O(n) linear scan per selection over per-node std::set
 * colour sets: maximum saturation, ties by maximum degree, then by
 * smallest index.
 */
std::vector<int> dsaturReference(const Graph &graph);

/** Resonator share graph by an all-pairs scan over couplers. */
Graph resonatorShareGraphAllPairs(const Graph &coupling);

/**
 * FrequencyAssigner::countDomainViolations with the resonator pass as
 * an all-pairs scan over couplers.
 */
int countDomainViolationsAllPairs(const Topology &topo,
                                  const FrequencyAssignment &assignment,
                                  double detuning_threshold_hz);

/** NetlistBuilder::build as one sequential append in instance order. */
Netlist buildReference(const Topology &topo,
                       const FrequencyAssignment &freqs,
                       double target_util, const PartitionParams &params);

/**
 * Plan-free in-place radix-2 FFT over power-of-two-length data: it
 * re-derives the twiddles and the bit-reversal order on every call.
 * FftPlan executes the same operations from precomputed tables.
 */
class Fft
{
  public:
    using Complex = FftPlan::Complex;

    /** X[k] = sum_n x[n] exp(-2*pi*i*k*n/N), no normalization. */
    static void forward(std::vector<Complex> &data);

    /** Inverse with 1/N normalization: inverse(forward(x)) == x. */
    static void inverse(std::vector<Complex> &data);

  private:
    static void transform(std::vector<Complex> &data, bool invert);
};

/**
 * Plan-free DCT/DST kernels (the DctPlan kinds, see math/dct_plan.hpp)
 * that allocate their workspaces and evaluate their twiddles per call,
 * plus O(N^2) direct-sum references.
 */
class Dct
{
  public:
    using Kind = DctPlan::Kind;

    static std::vector<double> dct2(const std::vector<double> &x);
    static std::vector<double> idct2(const std::vector<double> &X);
    static std::vector<double> cosSeries(const std::vector<double> &c);
    static std::vector<double> sinSeries(const std::vector<double> &c);

    /** Apply the kernel selected by @p kind to one vector. */
    static std::vector<double> apply(Kind kind, const std::vector<double> &x);

    static std::vector<double> dct2Direct(const std::vector<double> &x);
    static std::vector<double> cosSeriesDirect(const std::vector<double> &c);
    static std::vector<double> sinSeriesDirect(const std::vector<double> &c);
};

/** Plan-free row pass: per-row Dct::apply with per-call workspaces. */
void transformRowsUnplanned(std::vector<double> &map, int nx, int ny,
                            Dct::Kind kind, ThreadPool *pool);

/** Plan-free column pass (see transformRowsUnplanned). */
void transformColsUnplanned(std::vector<double> &map, int nx, int ny,
                            Dct::Kind kind, ThreadPool *pool);

/**
 * FreqForceModel over the all-distance collision map: a sorted-frequency
 * window sweep lists, per instance, every near-resonant partner at any
 * distance (same resonator excluded), and evaluate() scans each list,
 * skipping the pairs beyond their cutoff radius. It runs serially: each
 * pair once, by its lower index, pushing both endpoints.
 */
class PairListFreqForce
{
  public:
    PairListFreqForce(const Netlist &netlist, double threshold_hz,
                      double cutoff_factor);

    /**
     * FreqForceModel::evaluate over the pair lists; returns the
     * truncated Coulomb energy.
     */
    double evaluate(const std::vector<Vec2> &positions,
                    std::vector<Vec2> &gradient) const;

  private:
    std::vector<std::vector<std::int32_t>> partners_;
    std::vector<double> charge_;
    double cutoffFactor_;
};

/**
 * Smooth wirelength of WirelengthModel at smoothing @p gamma: per 2-pin
 * net and axis w * (|d| + 2*gamma*log1p(exp(-|d|/gamma))), the
 * log-sum-exp form whose gradient is w * tanh(d / (2*gamma)).
 */
double smoothWirelength(const Netlist &netlist, double gamma,
                        const std::vector<Vec2> &positions);

/**
 * Index of the bin of @p n bins of width @p width starting at @p lo
 * that holds coordinate @p v: std::floor of the bin quotient, clamped
 * into [0, n-1]. BinGrid::clampX/clampY form it with a truncating cast.
 */
int floorBinIndex(double v, double lo, double width, int n);

/**
 * BinGrid::stencil of @p rect: the rect shifted into the region
 * (clipped where larger) and its inclusive bin span, each index taken
 * by floorBinIndex (the far edge backed off by 1e-12).
 */
BinStencil binStencil(const BinGrid &grid, const Rect &rect);

/**
 * BinGrid splat one bin rectangle at a time over binStencil's span,
 * adding amount * overlapArea / area to each overlapped bin of
 * @p bins, a map laid out like grid.data().
 */
void binSplat(const BinGrid &grid, const Rect &rect, double amount,
              double *bins);

/**
 * Overlap-weighted average of @p map (laid out like grid.data()) over
 * @p rect clamped as binSplat clamps it, one bin rectangle at a time;
 * 0 when no bin area is covered.
 */
double binSample(const BinGrid &grid, const std::vector<double> &map,
                 const Rect &rect);

/**
 * The annealer's combined move objective on a whole layout: HPWL plus
 * DetailedPlacer::kFidelityWeight times the hinge sum of
 * (adjacencyTol - gap) over every hotspot pair, found by an all-pairs
 * scan. Collision-count increases are hard-rejected (not priced), so
 * along any accepted trajectory at temperature 0 this value is
 * non-increasing.
 */
double detailedObjective(const Netlist &netlist, const CrosstalkRule &rule);

/**
 * largestNorm (core/nesterov.hpp) without its candidate filter:
 * std::max(m, std::hypot(g.x, g.y)) over every entry, from m = 0.
 */
double largestNorm(const std::vector<Vec2> &gradient);

/**
 * forEachNearPair (geometry/near_pairs.hpp) by an all-pairs scan: every
 * (a, b), a < b, whose offset d = points[b] - points[a] has
 * d.x * d.x <= reach * reach and d.y * d.y <= reach * reach, in (a, b)
 * order. A non-finite point fails both tests, so it pairs with nothing.
 */
std::vector<std::pair<std::int32_t, std::int32_t>>
nearPairs(const std::vector<Vec2> &points, double reach);

/**
 * Topology::minEmbeddingSpacing by an all-pairs scan: std::min over
 * every embedding[i].dist(embedding[j]), i < j, from infinity.
 */
double minEmbeddingSpacing(const Topology &topo);

/**
 * analyzeHotspots' pairs by an all-pairs scan, in (a, b) order: the
 * pairs whose centres lie within the largest padded extent plus
 * rule.adjacencyTolUm ((b - a).normSq() <= reach * reach) and that
 * rule.hotspotPair flags.
 */
std::vector<HotspotPair> hotspotPairs(const Netlist &netlist,
                                      const CrosstalkRule &rule);

} // namespace oracle
} // namespace qplacer

#endif // QPLACER_TESTS_ORACLES_HPP
