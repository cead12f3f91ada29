/**
 * @file
 * The staged flow API: the Fig. 7 pipeline decomposed into explicit,
 * individually timed stages running over a shared FlowContext.
 *
 * A flow is a sequence of FlowStage objects (frequency assignment ->
 * netlist build -> global placement -> legalization -> metrics; see
 * makeDefaultStages). runStages() drives them with structured error
 * reporting (FlowStatus instead of silent success), per-stage spans in
 * the job's Trace, FlowObserver callbacks (stage begin/end and optimizer
 * iteration progress), and cooperative cancellation.
 *
 * QplacerFlow::run() is a thin wrapper over this path; PlacementSession
 * (session.hpp) adds pool/plan reuse across runs and concurrent batch
 * execution on top of it.
 */

#ifndef QPLACER_PIPELINE_STAGE_HPP
#define QPLACER_PIPELINE_STAGE_HPP

#include <memory>
#include <string>
#include <vector>

namespace qplacer {

struct FlowContext;
struct FlowParams;
struct PlaceProgress;
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
 * Callback surface over a flow run. Default implementations do
 * nothing; override what you need. In a concurrent batch
 * (PlacementSession::runBatch with workers > 1) callbacks fire on pool
 * worker threads, possibly concurrently for different jobs -- an
 * observer shared across jobs must be thread-safe. Use
 * FlowContext::jobIndex to tell jobs apart.
 */
class FlowObserver
{
  public:
    virtual ~FlowObserver() = default;

    /** A stage is about to run. */
    virtual void onStageBegin(const FlowContext &ctx,
                              const std::string &stage)
    {
        (void)ctx;
        (void)stage;
    }

    /** A stage finished after @p seconds (also fires if it errored). */
    virtual void onStageEnd(const FlowContext &ctx,
                            const std::string &stage, double seconds)
    {
        (void)ctx;
        (void)stage;
        (void)seconds;
    }

    /**
     * Global-placement iteration progress (fires once per Nesterov
     * iteration, after the objective evaluation). Cancel mid-placement
     * by flipping the run's CancelToken from here.
     */
    virtual void onIteration(const FlowContext &ctx,
                             const PlaceProgress &progress)
    {
        (void)ctx;
        (void)progress;
    }
};

/**
 * One step of the flow. Stages communicate exclusively through the
 * FlowContext (read params/topology, fill in FlowContext::result), so
 * they compose: a custom pipeline is just a different stage vector.
 * Errors are reported by throwing (fatal()/panic() style); runStages
 * converts escaping exceptions into FlowStatus::StageError.
 */
class FlowStage
{
  public:
    virtual ~FlowStage() = default;

    /** Stable stage name (used in the trace, status, and observer events). */
    virtual const char *name() const = 0;

    /** Execute the stage against @p ctx. */
    virtual void run(FlowContext &ctx) const = 0;
};

/**
 * The Fig. 7 stage sequence for @p params (which must already be
 * normalized): assign -> build -> place -> legalize -> metrics, with
 * build/place/legalize replaced by the manual layout stage in Human
 * mode. When params.detailed.enabled with a positive iteration budget
 * (and not in Human mode), the annealing detailed-placement stage is
 * inserted between legalize and metrics.
 */
std::vector<std::unique_ptr<FlowStage>>
makeDefaultStages(const FlowParams &params);

/**
 * Individual default stages, for composing custom pipelines (the
 * incremental re-place sequence in incremental.hpp reuses assign/build
 * and metrics around its own warm-start stages; the portfolio's probe
 * pipeline truncates after the global-place stage).
 */
std::unique_ptr<FlowStage> makeAssignStage();
std::unique_ptr<FlowStage> makeBuildStage();
std::unique_ptr<FlowStage> makeGlobalPlaceStage();
std::unique_ptr<FlowStage> makeMetricsStage();

/**
 * Global placement of ctx.result.netlist with @p params on ctx.pool,
 * shared by the cold and warm place stages: iterations stream to
 * ctx.observer, ctx.cancel is polled, and a cancelled run sets the
 * Cancelled status for @p stage.
 */
void runGlobalPlacer(FlowContext &ctx, const PlacerParams &params,
                     const char *stage);

/**
 * Drive @p stages over @p ctx in order: a kFlowSpan span around the
 * run and one span per stage in ctx.result.trace, observer events,
 * cancellation polling between stages, and exception -> FlowStatus
 * conversion. On return ctx.result holds everything the run produced
 * (status and trace included).
 */
void runStages(FlowContext &ctx,
               const std::vector<std::unique_ptr<FlowStage>> &stages);

} // namespace qplacer

#endif // QPLACER_PIPELINE_STAGE_HPP
