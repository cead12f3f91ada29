/**
 * @file
 * End-to-end placement flow (Fig. 7): frequency assignment ->
 * preprocessing (padding + partitioning) -> frequency-aware global
 * placement -> integration-aware legalization -> metrics.
 *
 * This header holds the flow's vocabulary: its parameters (FlowParams)
 * and everything a run produces (FlowResult). PlacementSession::run
 * (session.hpp) is the one way to run it:
 *
 *   Topology topo = makeTopology("Falcon");
 *   PlacementSession session;
 *   FlowResult r = session.run(topo, FlowParams{});
 *   if (r.status.ok())
 *       writeLayoutSvg(r.netlist, "falcon.svg");
 */

#ifndef QPLACER_PIPELINE_FLOW_HPP
#define QPLACER_PIPELINE_FLOW_HPP

#include "baseline/human_placer.hpp"
#include "core/placer.hpp"
#include "eval/area.hpp"
#include "eval/crosscut.hpp"
#include "eval/hotspot.hpp"
#include "freq/assigner.hpp"
#include "legal/anneal.hpp"
#include "legal/legalizer.hpp"
#include "netlist/builder.hpp"
#include "pipeline/stage.hpp"
#include "topology/topology.hpp"
#include "util/trace.hpp"

namespace qplacer {

/** Which placement scheme to run (Section V-B). */
enum class PlacerMode
{
    Qplacer, ///< Frequency-aware engine + tau-checked legalization.
    Classic, ///< Same engine, frequency force and tau checks disabled.
    Human,   ///< Manual grid-style reference layout.
};

/**
 * Knobs of the incremental re-place path (incremental.hpp): warm-start
 * the global placer from a prior layout and re-place the dirtied
 * region from scratch. Ignored by cold runs.
 */
struct IncrementalPlaceParams
{
    /**
     * Nesterov iteration budget for the warm re-solve. A warm start
     * sits near a legalized optimum already, so this is a fraction of
     * PlacerParams::maxIters.
     */
    int maxIters = 120;
};

/**
 * Knobs of the multi-start portfolio. PlacementSession::run races the
 * seeds when seeds > 1; seeds = 1 is the exact single-seed flow.
 * runBatch and runIncremental place one seed and reject seeds > 1
 * as InvalidParams.
 */
struct PortfolioParams
{
    /**
     * Candidate count: seeds placer.seed .. placer.seed + seeds - 1
     * (wrapping mod 2^64), each run through the complete flow as one
     * job of a batch.
     */
    int seeds = 1;
};

/** Full-flow configuration. */
struct FlowParams
{
    PlacerMode mode = PlacerMode::Qplacer;
    AssignerParams assigner;
    PartitionParams partition;
    PlacerParams placer;
    LegalizerParams legalizer;
    CrosstalkRule crosstalk; ///< The one copy; every stage reads it.
    IncrementalPlaceParams incremental;
    DetailedPlaceParams detailed; ///< Post-legalization annealing stage.
    PortfolioParams portfolio;    ///< Multi-start knobs.
    double targetUtil = 0.72;

    /**
     * Validated, self-consistent copy of these parameters -- the only
     * form the staged pipeline accepts. Normalization:
     *
     *  - Classic mode disables the frequency force and the resonance
     *    check (Section V-B);
     *  - placer.minIters (a convergence floor) is clamped to the
     *    iteration budget, so lowering only maxIters stays valid.
     *
     * Out-of-range values (non-positive segment size, targetUtil
     * outside (0, 1], negative minIters, a portfolio in Human mode,
     * ...) are *errors*, caught here instead of surfacing as UB
     * downstream: @p error receives the first violation's message
     * (empty on success) and the partially normalized copy is
     * returned for inspection.
     */
    FlowParams normalized(std::string &error) const;
};

/** Diagnostics of an incremental re-place run (zero on cold runs). */
struct IncrementalStats
{
    bool incremental = false; ///< This run warm-started from a prior.
    bool reusedPrior = false; ///< Empty delta: prior layout returned as-is.
    int mappedInstances = 0;  ///< Instances warm-started from the prior.
    int freshInstances = 0;   ///< Instances with no prior position.
    int dirtyInstances = 0;   ///< Delta closure re-placed from scratch.
    /** Instances legalized: all of them, or 0 when the prior was reused. */
    int movableInstances = 0;
};

/** One candidate of a portfolio run (PortfolioStats::candidates). */
struct PortfolioCandidate
{
    std::uint64_t seed = 0; ///< Resolved placer seed.
    double finalHpwl = 0.0; ///< Final layout HPWL (0 when the run failed).
    bool winner = false;    ///< This candidate's layout was returned.
};

/** Diagnostics of a portfolio run (zero/empty for single-seed runs). */
struct PortfolioStats
{
    bool portfolio = false; ///< This result came from a portfolio run.
    int seeds = 0;          ///< Candidates launched.
    std::uint64_t winnerSeed = 0;
    std::vector<PortfolioCandidate> candidates; ///< Indexed by offset.
};

/** Everything a flow run produces. */
struct FlowResult
{
    Netlist netlist; ///< Placed + legalized layout.
    FrequencyAssignment freqs;
    PlaceResult place;    ///< Global-placement stats (not for Human).
    LegalizeResult legal; ///< Legalization stats (not for Human).
    AreaMetrics area;
    HotspotReport hotspots;
    CrossCutMetrics multidie; ///< Cross-cut metrics (inactive on 1 die).
    FlowStatus status;    ///< Structured outcome (Ok / error / cancelled).
    IncrementalStats incremental; ///< Warm-start diagnostics, if any.
    DetailedStats detailed;       ///< Detailed-placement stats, if run.
    PortfolioStats portfolioStats; ///< Portfolio diagnostics, if any.
    Trace trace; ///< Wall clocks: kFlowSpan > stages > sub-stages.

    /** End-to-end wall clock (the trace's kFlowSpan root). */
    double seconds() const { return trace.seconds({kFlowSpan}); }
};

/** Human-readable mode name. */
const char *placerModeName(PlacerMode mode);

} // namespace qplacer

#endif // QPLACER_PIPELINE_FLOW_HPP
