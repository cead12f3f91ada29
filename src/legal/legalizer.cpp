#include "legal/legalizer.hpp"

#include <algorithm>
#include <numeric>

#include "geometry/near_pairs.hpp"
#include "legal/spiral.hpp"
#include "legal/tetris.hpp"
#include "util/logging.hpp"
#include "util/trace.hpp"

namespace qplacer {

namespace {

/**
 * Stage 1: spiral-legalize every qubit central-first. When @p plan is
 * given, each qubit stays inside the die its global-placement position
 * falls in, so the spiral never moves it across a cut. Adds the summed
 * qubit displacement to @p displacement_um; false if some qubit found
 * no free site.
 */
bool
spiralLegalizeQubits(Netlist &netlist, OccupancyGrid &grid,
                     const DiePlan *plan, double &displacement_um)
{
    const int nq = netlist.numQubits();
    const Vec2 center = netlist.region().center();
    std::vector<Vec2> desired(nq);
    // Center distances precomputed once, not twice per comparison.
    std::vector<double> center_dist(nq, 0.0);
    std::vector<int> die_of(plan ? nq : 0, 0);
    for (int q = 0; q < nq; ++q) {
        desired[q] = netlist.instance(q).pos;
        center_dist[q] = desired[q].dist(center);
        if (plan)
            die_of[q] = plan->dieAt(desired[q]);
    }
    std::vector<int> order(nq);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        if (center_dist[a] != center_dist[b])
            return center_dist[a] < center_dist[b];
        return a < b;
    });

    for (int q : order) {
        Instance &inst = netlist.instance(q);
        const double w = inst.paddedWidth();
        const double h = inst.paddedHeight();
        std::optional<Vec2> spot;
        if (plan) {
            const Rect die = plan->dies[die_of[q]].inflated(1e-6);
            spot = spiralSearchFiltered(
                grid, inst.pos, w, h, [&](Vec2 c) {
                    return die.containsRect(Rect::fromCenter(c, w, h));
                });
        } else {
            spot = spiralSearch(grid, inst.pos, w, h);
        }
        if (!spot)
            return false;
        inst.pos = *spot;
        grid.occupy(Rect::fromCenter(*spot, w, h), q);
    }
    for (int q = 0; q < nq; ++q)
        displacement_um += desired[q].dist(netlist.instance(q).pos);
    return true;
}

} // namespace

Legalizer::Legalizer(LegalizerParams params, CrosstalkRule rule)
    : params_(params), rule_(rule)
{
}

bool
Legalizer::attempt(Netlist &netlist, LegalizeResult &result,
                   const CancelToken *cancel, Trace *trace) const
{
    result = LegalizeResult{};

    // Multi-die: the cut gaps are blocked before anything is placed.
    OccupancyGrid grid(netlist.region(), kCellUm);
    DiePlan plan;
    const bool multi = netlist.dieSpec().active();
    if (multi) {
        plan = DiePlan::resolve(netlist.dieSpec(), netlist.region());
        for (const Rect &band : plan.gapBands())
            grid.block(band);
    }

    // --- Stage 1: qubits (greedy spiral, central-first). ---
    Trace::Span spiral(trace, "spiral");
    if (!spiralLegalizeQubits(netlist, grid, multi ? &plan : nullptr,
                              result.qubitDisplacementUm))
        return false;
    spiral.stop();

    // --- Stage 2: segments (Tetris). ---
    if (cancel && cancel->cancelled()) {
        result.cancelled = true;
        return true;
    }
    Trace::Span tetris(trace, "tetris");
    if (!tetrisLegalizeSegments(netlist, grid, params_.resonanceCheck,
                                rule_, result.segmentDisplacementUm)) {
        return false;
    }
    tetris.stop();

    // --- Stage 3: integration-aware repair of the chains. ---
    if (cancel && cancel->cancelled()) {
        result.cancelled = true;
        return true;
    }
    Trace::Span integration(trace, "integration");
    if (params_.integration) {
        IntegrationLegalizer integrator(params_.resonanceCheck, rule_);
        result.integration = integrator.run(netlist, grid);
    }
    return true;
}

LegalizeResult
Legalizer::legalize(Netlist &netlist, const CancelToken *cancel,
                    Trace *trace) const
{
    // Snapshot the input so retries with a larger region restart from
    // the same positions.
    std::vector<Vec2> snapshot(netlist.numInstances());
    for (int i = 0; i < netlist.numInstances(); ++i)
        snapshot[i] = netlist.instance(i).pos;
    const Rect original_region = netlist.region();

    LegalizeResult result;
    for (int attempt_idx = 0; attempt_idx < 4; ++attempt_idx) {
        if (cancel && cancel->cancelled()) {
            result.cancelled = true;
            return result;
        }
        if (attempt_idx > 0) {
            // The region was too fragmented: grow it by 8% per retry
            // (A_mer is measured from the final bounding box, so slack
            // here does not inflate the reported area).
            const double grow =
                1.0 + 0.08 * static_cast<double>(attempt_idx);
            Rect region = original_region;
            region.hi.x = region.lo.x + original_region.width() * grow;
            region.hi.y = region.lo.y + original_region.height() * grow;
            netlist.setRegion(region);
            for (int i = 0; i < netlist.numInstances(); ++i)
                netlist.instance(i).pos = snapshot[i];
            warn(str("Legalizer: retrying with region grown ",
                     (grow - 1.0) * 100.0, "%"));
        }
        if (attempt(netlist, result, cancel, trace)) {
            if (result.cancelled)
                return result;
            result.legal = isLegal(netlist);
            if (!result.legal)
                warn("Legalizer: layout has residual overlaps");
            return result;
        }
    }
    fatal("Legalizer: could not legalize even after region expansion");
}

bool
Legalizer::isLegal(const Netlist &netlist, double tol_um)
{
    const auto &instances = netlist.instances();
    const Rect region = netlist.region().inflated(tol_um);

    double max_extent = 0.0;
    std::vector<NearPoint> centres;
    centres.reserve(instances.size());
    for (const Instance &inst : instances) {
        if (!region.containsRect(inst.paddedRect()))
            return false;
        max_extent = std::max(
            {max_extent, inst.paddedWidth(), inst.paddedHeight()});
        centres.push_back(NearPoint{inst.pos, inst.id});
    }
    // Overlapping footprints have centres less than one extent apart in
    // x and in y: a box window, since footprints that meet at a corner
    // can overlap with centres up to sqrt(2) extents apart.
    bool legal = true;
    forEachNearPair(centres, max_extent, [&](int a, int b) {
        const Rect overlap =
            instances[a].paddedRect().intersect(instances[b].paddedRect());
        if (!overlap.empty() && overlap.width() > tol_um &&
            overlap.height() > tol_um)
            legal = false;
    });
    return legal;
}

} // namespace qplacer
