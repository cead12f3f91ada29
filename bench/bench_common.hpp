/**
 * @file
 * Shared helpers for the benchmark drivers: the paper-figure drivers
 * whose output is a table (the l_b sweep, the design ablation) and the
 * engine benches. The paper's headline claims are asserted by
 * `ctest -L paper` instead (docs/ARCHITECTURE.md, "The paper-claim
 * suite").
 *
 * Environment overrides:
 *   QP_SUBSETS   mappings per benchmark (default 50, the paper's count)
 *   QP_SEED      placement seed (default 1)
 */

#ifndef QPLACER_BENCH_COMMON_HPP
#define QPLACER_BENCH_COMMON_HPP

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "geometry/bin_grid.hpp"
#include "qplacer.hpp"
#include "util/config.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace qplacer::bench {

/** Number of device subsets per benchmark evaluation. */
inline int
numSubsets()
{
    return static_cast<int>(Config::envInt("QP_SUBSETS", 50));
}

/** Placement seed. */
inline std::uint64_t
placementSeed()
{
    return static_cast<std::uint64_t>(Config::envInt("QP_SEED", 1));
}

/** Place @p topo with @p params; a failed run ends the program. */
inline FlowResult
placeOrDie(const Topology &topo, const FlowParams &params)
{
    FlowResult r = PlacementSession().run(topo, params);
    if (!r.status.ok()) {
        fatal(topo.name + ": " + flowCodeName(r.status.code) + " in " +
              r.status.stage + ": " + r.status.message);
    }
    return r;
}

/** Cache of flow results keyed by (topology, mode, l_b). */
class FlowCache
{
  public:
    const FlowResult &
    get(const std::string &topo_name, PlacerMode mode,
        double segment_um = 300.0)
    {
        const std::string key =
            topo_name + "/" + placerModeName(mode) + "/" +
            std::to_string(static_cast<int>(segment_um));
        auto it = cache_.find(key);
        if (it == cache_.end()) {
            FlowParams params;
            params.mode = mode;
            params.partition.segmentUm = segment_um;
            params.placer.seed = placementSeed();
            it = cache_
                     .emplace(key,
                              placeOrDie(makeTopology(topo_name), params))
                     .first;
        }
        return it->second;
    }

  private:
    std::map<std::string, FlowResult> cache_;
};

/** Evaluator configured from the environment. */
inline Evaluator
makeEvaluator()
{
    EvaluatorParams params;
    params.numSubsets = numSubsets();
    return Evaluator(params);
}

/** Print a header naming the experiment. */
inline void
banner(const char *what)
{
    std::printf("== %s ==\n", what);
}

/** One density-engine benchmark instance (see spectralWorkloads). */
struct SpectralWorkload
{
    std::string name;
    Topology topo;
    int bins;
};

/**
 * The workloads the density/spectral engine drivers time: Aspen-M on
 * the 64x64 grid its Qplacer placement uses (DensityModel::autoBinCount
 * of its 1356 instances), the largest paper device and a 1024-qubit
 * parametric grid (past every paper device, the north-star scale).
 */
inline std::vector<SpectralWorkload>
spectralWorkloads()
{
    std::vector<SpectralWorkload> workloads;
    workloads.push_back({"Aspen-M", makeTopology("Aspen-M"), 64});
    workloads.push_back({"Eagle", makeTopology("Eagle"), 128});
    workloads.push_back({"grid32x32", makeGrid(32, 32), 256});
    return workloads;
}

/**
 * Charge-density map of the netlist's current (warm-start) layout:
 * padded footprints splatted onto a bins x bins grid, normalized to
 * charge per unit area — exactly what DensityModel::evaluate feeds
 * the Poisson solver.
 */
inline std::vector<double>
densityMap(const Netlist &netlist, int bins)
{
    BinGrid grid(netlist.region(), bins, bins);
    for (const Instance &inst : netlist.instances()) {
        grid.splat(Rect::fromCenter(inst.pos, inst.paddedWidth(),
                                    inst.paddedHeight()),
                   inst.paddedArea());
    }
    std::vector<double> density = grid.data();
    const double inv_bin_area = 1.0 / grid.binArea();
    for (double &d : density)
        d *= inv_bin_area;
    return density;
}

/** Everything a density-engine driver times against (see prepare). */
struct SpectralInstance
{
    Netlist netlist;
    std::vector<Vec2> positions; ///< Warm-start instance centers.
    std::vector<double> density; ///< densityMap of that layout.
};

/**
 * Build the netlist, warm-start position snapshot, and density map
 * for one workload with default flow parameters — shared so the
 * density-engine drivers cannot drift onto different instances.
 */
inline SpectralInstance
prepare(const SpectralWorkload &wl)
{
    FlowParams params;
    const FrequencyAssigner assigner(params.assigner, params.crosstalk);
    const auto freqs = assigner.assign(wl.topo);
    const NetlistBuilder builder(params.partition);
    SpectralInstance inst;
    inst.netlist = builder.build(wl.topo, freqs, params.targetUtil);
    inst.positions.resize(inst.netlist.instances().size());
    for (std::size_t i = 0; i < inst.positions.size(); ++i)
        inst.positions[i] = inst.netlist.instances()[i].pos;
    inst.density = densityMap(inst.netlist, wl.bins);
    return inst;
}

} // namespace qplacer::bench

#endif // QPLACER_BENCH_COMMON_HPP
