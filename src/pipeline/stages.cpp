/**
 * @file
 * The default Fig. 7 stage implementations and the stage runner.
 */

#include <exception>

#include "pipeline/context.hpp"
#include "pipeline/stage.hpp"
#include "util/logging.hpp"

namespace qplacer {

const char *
flowCodeName(FlowCode code)
{
    switch (code) {
      case FlowCode::Ok:
        return "ok";
      case FlowCode::InvalidParams:
        return "invalid_params";
      case FlowCode::Cancelled:
        return "cancelled";
      case FlowCode::StageError:
        return "stage_error";
      case FlowCode::DeadlineExceeded:
        return "deadline_exceeded";
    }
    return "?";
}

namespace {

/** Fig. 7a: graph-colouring frequency assignment. */
void
assign(FlowContext &ctx)
{
    const FrequencyAssigner assigner(ctx.params.assigner,
                                     ctx.params.crosstalk);
    ctx.result.freqs = assigner.assign(*ctx.topo, &ctx.result.trace);
}

/** Fig. 7b: padding + partitioning into the placement netlist. */
void
build(FlowContext &ctx)
{
    const NetlistBuilder builder(ctx.params.partition);
    ctx.result.netlist =
        builder.build(*ctx.topo, ctx.result.freqs, ctx.params.targetUtil,
                      &ctx.result.trace);
    // Multi-die only: widen the region by the cut gaps (so per-die
    // usable area matches the single-die total) and record the
    // partition on the netlist. Inactive specs leave the netlist
    // bitwise-identical to the pre-multidie build.
    const DieSpec &dies = ctx.topo->dies;
    if (dies.active()) {
        Rect region = ctx.result.netlist.region();
        region.hi.x += (dies.cols - 1) * dies.cutGapUm;
        region.hi.y += (dies.rows - 1) * dies.cutGapUm;
        ctx.result.netlist.setRegion(region);
        ctx.result.netlist.setDieSpec(dies);
    }
}

/** Human baseline: manual grid-style layout replaces build/place/legal. */
void
humanPlace(FlowContext &ctx)
{
    const HumanPlacer human(ctx.params.partition);
    ctx.result.netlist = human.place(*ctx.topo, ctx.result.freqs);
}

/** Fig. 7c: frequency-aware electrostatic global placement. */
void
place(FlowContext &ctx)
{
    runGlobalPlacer(ctx, ctx.params.placer);
}

/** Fig. 7d: spiral + Tetris + integration repair. */
void
legalize(FlowContext &ctx)
{
    const Legalizer legalizer(ctx.params.legalizer, ctx.params.crosstalk);
    ctx.result.legal = legalizer.legalize(ctx.result.netlist, ctx.cancel,
                                          &ctx.result.trace);
    if (ctx.result.legal.cancelled) {
        ctx.result.status = {FlowCode::Cancelled, "",
                             "cancelled during legalization"};
    }
}

/** Post-legalization annealing refinement (anneal.hpp), opt-in. */
void
detailedPlace(FlowContext &ctx)
{
    const DetailedPlacer placer(ctx.params.detailed, ctx.params.crosstalk);
    ctx.result.detailed = placer.refine(ctx.result.netlist,
                                        ctx.params.placer.seed, ctx.cancel);
    if (ctx.result.detailed.cancelled) {
        ctx.result.status = {FlowCode::Cancelled, "",
                             "cancelled during detailed placement"};
    }
}

/** Fig. 7e: area + hotspot metrics and the end-of-flow summary line. */
void
metrics(FlowContext &ctx)
{
    ctx.result.area = computeArea(ctx.result.netlist);
    ctx.result.hotspots =
        analyzeHotspots(ctx.result.netlist, ctx.params.crosstalk);
    if (ctx.result.netlist.dieSpec().active()) {
        ctx.result.multidie = computeCrossCut(
            ctx.result.netlist,
            DiePlan::resolve(ctx.result.netlist.dieSpec(),
                             ctx.result.netlist.region()));
    }
    if (ctx.logging) {
        inform(str(placerModeName(ctx.params.mode), " flow on ",
                   ctx.topo->name,
                   ": #cells=", ctx.result.netlist.numInstances(),
                   " Ph=", ctx.result.hotspots.phPercent,
                   "% util=", ctx.result.area.utilization));
    }
}

const FlowStage kPlaceStage{"place", place};

} // namespace

const FlowStage kAssignStage{"assign", assign};
const FlowStage kBuildStage{"build", build};
const FlowStage kLegalizeStage{"legalize", legalize};
const FlowStage kMetricsStage{"metrics", metrics};

std::vector<FlowStage>
makeDefaultStages(const FlowParams &params)
{
    if (params.mode == PlacerMode::Human)
        return {kAssignStage, {"human_place", humanPlace}, kMetricsStage};

    std::vector<FlowStage> stages{kAssignStage, kBuildStage, kPlaceStage,
                                  kLegalizeStage};
    // detailed.iters is the stage's one switch: at 0 (the default) the
    // stage is not even inserted, so the stage list (and with it every
    // timing and observer event) is that of the plain Fig. 7 flow.
    if (params.detailed.iters > 0)
        stages.push_back({"detailed", detailedPlace});
    stages.push_back(kMetricsStage);
    return stages;
}

void
runGlobalPlacer(FlowContext &ctx, const PlacerParams &params)
{
    PlaceMonitor monitor;
    monitor.cancel = ctx.cancel;
    if (ctx.observer) {
        monitor.onIteration = [&ctx](const PlaceProgress &progress) {
            ctx.observer->onIteration(ctx, progress);
        };
    }

    const GlobalPlacer placer(params, ctx.params.crosstalk);
    ctx.result.place = placer.place(ctx.result.netlist, monitor);
    if (ctx.result.place.cancelled) {
        ctx.result.status = {FlowCode::Cancelled, "",
                             "cancelled during global placement"};
    }
}

void
runStages(FlowContext &ctx, const std::vector<FlowStage> &stages)
{
    Trace::Span flow(&ctx.result.trace, kFlowSpan);
    for (const FlowStage &stage : stages) {
        if (ctx.cancelled()) {
            ctx.result.status = {FlowCode::Cancelled, stage.name,
                                 "cancelled before stage"};
            break;
        }
        if (ctx.observer)
            ctx.observer->onStageBegin(ctx, stage.name);

        Trace::Span span(&ctx.result.trace, stage.name);
        try {
            stage.run(ctx);
        } catch (const std::exception &e) {
            ctx.result.status = {FlowCode::StageError, "", e.what()};
        }
        // A stage either failed or flagged cancellation from within
        // (placer/legalizer polls); either way the run ended here.
        const bool ended = !ctx.result.status.ok();
        if (ended)
            ctx.result.status.stage = stage.name;

        const double seconds = span.stop();
        if (ctx.observer)
            ctx.observer->onStageEnd(ctx, stage.name, seconds);

        // Later stages must not run on the partial result.
        if (ended)
            break;
    }
}

} // namespace qplacer
