/**
 * @file
 * FlowContext: the shared state one staged flow run threads through
 * its stages -- input topology and normalized parameters (the
 * placement's thread count among them), observer/cancellation hooks,
 * and the FlowResult being assembled. Stages communicate exclusively
 * through this object.
 */

#ifndef QPLACER_PIPELINE_CONTEXT_HPP
#define QPLACER_PIPELINE_CONTEXT_HPP

#include "pipeline/flow.hpp"
#include "pipeline/observer.hpp"
#include "pipeline/stage.hpp"
#include "topology/topology.hpp"
#include "util/cancel.hpp"

namespace qplacer {

struct IncrementalState;

/** Shared state of one flow run (one placement job). */
struct FlowContext
{
    /** Input device (borrowed; must outlive the run). */
    const Topology *topo = nullptr;

    /** Normalized parameters (FlowParams::normalized applied). */
    FlowParams params;

    /**
     * Position of this run in its batch (0 for single runs). Observer
     * callbacks use it to tell concurrent jobs apart.
     */
    int jobIndex = 0;

    /** Progress callbacks (borrowed; null = no events). */
    FlowObserver *observer = nullptr;

    /** Cooperative cancellation (borrowed; null = not cancellable). */
    const CancelToken *cancel = nullptr;

    /**
     * Emit inform() status lines. Off for concurrently executing batch
     * jobs, where interleaved per-stage chatter helps nobody; errors
     * still surface through FlowResult::status.
     */
    bool logging = true;

    /**
     * Incremental re-place state (borrowed; null = cold run). Set by
     * PlacementSession::runIncremental together with the warm-start
     * stage sequence (incremental.hpp); the default stages ignore it.
     */
    IncrementalState *incremental = nullptr;

    /** The result being assembled; stages fill in their slice. */
    FlowResult result;

    /** True once the run's CancelToken has fired. */
    bool cancelled() const { return cancel && cancel->cancelled(); }
};

} // namespace qplacer

#endif // QPLACER_PIPELINE_CONTEXT_HPP
