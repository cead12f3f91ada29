/**
 * @file
 * Incremental re-place: warm-start a flow run from a prior job's
 * legalized layout and re-solve it with a short global placement,
 * instead of running cold (the placement-as-a-service item of the
 * ROADMAP).
 *
 * The prior layout is captured as a PriorLayout keyed by *stable*
 * netlist identity -- topology qubit id for qubit instances,
 * (coupler endpoints, chain ordinal) for resonator segments -- so a
 * prior survives netlist rebuilds and small topology deltas: instances
 * that still exist warm-start at their prior legal sites, new or
 * delta-touched instances place from scratch.
 *
 * Stage sequence (makeIncrementalStages): assign -> build ->
 * warm_start -> place -> legalize -> metrics, where warm_start maps
 * prior positions onto the fresh netlist and computes the dirty set
 * (jittered like a cold start), place runs a short jitter-free
 * Nesterov re-solve (IncrementalPlaceParams::maxIters), and legalize
 * is the cold stage, over every instance: the re-solve moves nearly
 * every instance off its prior site, so no clean set survives to hold
 * fixed. An empty delta on an unchanged topology short-circuits: the
 * prior layout is reproduced exactly (bitwiseSameLayout) and the
 * place/legalize stages no-op.
 */

#ifndef QPLACER_PIPELINE_INCREMENTAL_HPP
#define QPLACER_PIPELINE_INCREMENTAL_HPP

#include <map>
#include <tuple>
#include <vector>

#include "geometry/rect.hpp"
#include "geometry/vec2.hpp"
#include "netlist/netlist.hpp"
#include "pipeline/stage.hpp"

namespace qplacer {

/** One remembered instance site of a prior layout. */
struct PriorSite
{
    Vec2 pos;            ///< Legalized center.
    double freqHz = 0.0; ///< Assigned frequency (drift marks dirty).
};

/**
 * A finished job's layout, keyed for re-identification across netlist
 * rebuilds. Cheap to keep per result (two position maps), so a server
 * can cache many.
 */
struct PriorLayout
{
    /** Segment key: (min endpoint qubit, max endpoint, chain ordinal). */
    using SegmentKey = std::tuple<int, int, int>;

    Rect region;                         ///< Legalized placement region.
    std::map<int, PriorSite> qubitSites; ///< By topology qubit id.
    std::map<SegmentKey, PriorSite> segmentSites;
    int numInstances = 0;

    /** Snapshot @p netlist (positions + frequencies) into a prior. */
    static PriorLayout capture(const Netlist &netlist);
};

/** What changed relative to the prior layout's netlist. */
struct NetlistDelta
{
    /**
     * Topology qubit ids whose neighbourhood changed (retuned,
     * re-coupled, added). The dirty closure is these qubits'
     * instances plus every segment of their incident resonators;
     * instances absent from the prior are always dirty.
     */
    std::vector<int> dirtyQubits;

    bool empty() const { return dirtyQubits.empty(); }
};

/**
 * Shared scratch of the incremental stages, pointed to by
 * FlowContext::incremental. Inputs (prior, delta) are set by the
 * caller; the warm_start stage tells the later stages whether the
 * prior was reused as-is.
 */
struct IncrementalState
{
    const PriorLayout *prior = nullptr; ///< Borrowed; required.
    NetlistDelta delta;
    bool reusedPrior = false; ///< Empty delta: layout reused as-is.
};

/**
 * The incremental stage sequence (Qplacer/Classic modes only).
 * FlowContext::incremental must point at an IncrementalState whose
 * prior is set; runStages drives it like any other pipeline.
 */
std::vector<FlowStage> makeIncrementalStages();

} // namespace qplacer

#endif
