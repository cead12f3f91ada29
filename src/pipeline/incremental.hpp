/**
 * @file
 * Incremental re-place: warm-start a flow run from a prior job's
 * legalized layout and re-legalize only the dirtied region, instead
 * of running cold (the VTR-style dirty-region re-place from the
 * ROADMAP's placement-as-a-service item).
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
 * prior positions onto the fresh netlist and computes the dirty set,
 * place runs a short jitter-free Nesterov re-solve
 * (IncrementalPlaceParams::maxIters), and legalize snaps undrifted
 * clean instances back to their prior sites and runs
 * Legalizer::legalize with the movers as its movable set. An empty delta on an
 * unchanged topology short-circuits: the prior layout is reproduced
 * exactly (bitwiseSameLayout) and the place/legalize stages no-op.
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
 * caller; the rest is filled by the warm_start stage for the scoped
 * legalize stage.
 */
struct IncrementalState
{
    const PriorLayout *prior = nullptr; ///< Borrowed; required.
    NetlistDelta delta;

    // warm_start -> legalize handoff (indexed by instance id).
    std::vector<char> dirty;     ///< Re-placed from scratch.
    std::vector<char> hasAnchor; ///< Mapped to a prior legal site.
    std::vector<Vec2> anchors;   ///< That site (valid when hasAnchor).
    bool reusedPrior = false;    ///< Empty delta: layout reused as-is.
};

/**
 * The incremental stage sequence (Qplacer/Classic modes only).
 * FlowContext::incremental must point at an IncrementalState whose
 * prior is set; runStages drives it like any other pipeline.
 */
std::vector<FlowStage> makeIncrementalStages();

} // namespace qplacer

#endif
