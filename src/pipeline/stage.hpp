/**
 * @file
 * The staged flow: the Fig. 7 pipeline as a list of named, individually
 * timed stage functions running over a shared FlowContext.
 *
 * A flow is a sequence of FlowStage values (frequency assignment ->
 * netlist build -> global placement -> legalization -> metrics; see
 * makeDefaultStages). runStages() drives them with structured error
 * reporting (FlowStatus instead of silent success), per-stage spans in
 * the job's Trace, FlowObserver callbacks (stage begin/end and optimizer
 * iteration progress), and cooperative cancellation.
 * PlacementSession::run (session.hpp) is the one way to run it.
 */

#ifndef QPLACER_PIPELINE_STAGE_HPP
#define QPLACER_PIPELINE_STAGE_HPP

#include <string>
#include <vector>

namespace qplacer {

struct FlowContext;
struct FlowParams;
struct PlacerParams;

/** How a flow run ended. */
enum class FlowCode
{
    Ok,            ///< All stages completed.
    InvalidParams, ///< FlowParams failed validation; nothing ran.
    Cancelled,     ///< A CancelToken stopped the run mid-flow.
    StageError,    ///< A stage failed (e.g. legalization ran out of room).

    /**
     * The job's deadline expired and the serving layer stopped it via
     * its CancelToken. Mechanically identical to Cancelled inside the
     * flow; reported distinctly so a client can tell an operator-
     * enforced timeout from its own cancel request.
     */
    DeadlineExceeded,
};

/** Human-readable FlowCode name. */
const char *flowCodeName(FlowCode code);

/** Structured outcome of a flow run (FlowResult::status). */
struct FlowStatus
{
    FlowCode code = FlowCode::Ok;
    std::string stage;   ///< Stage that ended the run ("" if none).
    std::string message; ///< Error / cancellation detail ("" when Ok).

    bool ok() const { return code == FlowCode::Ok; }
};

/** Root span of FlowResult::trace; each stage's span is its child. */
inline constexpr const char *kFlowSpan = "flow";

/**
 * One step of the flow: a stable name (used in the trace, status, and
 * observer events) and the function that runs it. Stages communicate
 * exclusively through the FlowContext (read params/topology, fill in
 * FlowContext::result), so a custom pipeline is just a different stage
 * list. A stage reports failure by throwing (fatal()/panic() style) and
 * cancellation by setting a Cancelled status; either way runStages
 * stamps the status with the stage's name and stops.
 */
struct FlowStage
{
    const char *name;
    void (*run)(FlowContext &ctx);
};

/**
 * The default stages the incremental re-place (incremental.hpp) wraps
 * its warm-start stages in; its legalize stage runs kLegalizeStage.
 */
extern const FlowStage kAssignStage;
extern const FlowStage kBuildStage;
extern const FlowStage kLegalizeStage;
extern const FlowStage kMetricsStage;

/**
 * The Fig. 7 stage sequence for @p params (which must already be
 * normalized): assign -> build -> place -> legalize -> metrics, with
 * build/place/legalize replaced by the manual layout stage in Human
 * mode. When params.detailed.iters is positive (and not in Human
 * mode), the annealing detailed-placement stage is inserted between
 * legalize and metrics.
 */
std::vector<FlowStage> makeDefaultStages(const FlowParams &params);

/**
 * Global placement of ctx.result.netlist with @p params on
 * params.threads threads, shared by the cold and warm place stages:
 * iterations stream to ctx.observer, ctx.cancel is polled, and a
 * cancelled run sets a Cancelled status.
 */
void runGlobalPlacer(FlowContext &ctx, const PlacerParams &params);

/**
 * Drive @p stages over @p ctx in order: a kFlowSpan span around the
 * run and one span per stage in ctx.result.trace, observer events,
 * cancellation polling between stages, and exception -> FlowStatus
 * conversion. On return ctx.result holds everything the run produced
 * (status and trace included).
 */
void runStages(FlowContext &ctx, const std::vector<FlowStage> &stages);

} // namespace qplacer

#endif // QPLACER_PIPELINE_STAGE_HPP
