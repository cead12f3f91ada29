#include "legal/legalizer.hpp"

#include <algorithm>

#include "geometry/near_pairs.hpp"
#include "legal/spiral.hpp"
#include "legal/tetris.hpp"
#include "util/logging.hpp"
#include "util/trace.hpp"

namespace qplacer {

namespace {

/**
 * Stage 1: spiral-legalize @p qubits (ascending ids) central-first.
 * When @p plan is given, each qubit stays inside the die its
 * global-placement position falls in, so the spiral never moves it
 * across a cut. Adds the summed qubit displacement to
 * @p displacement_um; false if some qubit found no free site.
 */
bool
spiralLegalizeQubits(Netlist &netlist, OccupancyGrid &grid,
                     const DiePlan *plan, const std::vector<int> &qubits,
                     double &displacement_um)
{
    const Vec2 center = netlist.region().center();
    std::vector<Vec2> desired(qubits.size());
    // Center distances precomputed once, not twice per comparison.
    std::vector<double> center_dist(netlist.numQubits(), 0.0);
    std::vector<int> die_of(plan ? netlist.numQubits() : 0, 0);
    for (std::size_t i = 0; i < qubits.size(); ++i) {
        const int q = qubits[i];
        desired[i] = netlist.instance(q).pos;
        center_dist[q] = desired[i].dist(center);
        if (plan)
            die_of[q] = plan->dieAt(desired[i]);
    }
    std::vector<int> order = qubits;
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
    for (std::size_t i = 0; i < qubits.size(); ++i)
        displacement_um += desired[i].dist(netlist.instance(qubits[i]).pos);
    return true;
}

} // namespace

Legalizer::Legalizer(LegalizerParams params, CrosstalkRule rule)
    : params_(params), rule_(rule)
{
}

bool
Legalizer::attempt(Netlist &netlist, const std::vector<char> &is_movable_in,
                   LegalizeResult &result, const CancelToken *cancel,
                   Trace *trace) const
{
    result = LegalizeResult{};
    std::vector<char> is_movable = is_movable_in;

    // Fixed instances enter the grid as obstacles at their current --
    // already legal -- positions. A conflicting fixed footprint is
    // possible when the delta resized instances under a stale prior;
    // demote it to movable (whole resonator for segments, so chains
    // stay whole) and rebuild the occupancy. Conflicts are rare, so
    // the restart loop almost never iterates.
    // Multi-die: cut gaps are reserved before the fixed obstacles go
    // in. A stale-prior fixed instance overlapping a gap simply fails
    // canPlace below and is demoted to movable like any conflict.
    DiePlan plan;
    const bool multi = netlist.dieSpec().active();
    if (multi)
        plan = DiePlan::resolve(netlist.dieSpec(), netlist.region());

    OccupancyGrid grid(netlist.region(), kCellUm);
    for (int restart = 0;; ++restart) {
        if (restart > 0)
            grid = OccupancyGrid(netlist.region(), kCellUm);
        if (multi)
            for (const Rect &band : plan.gapBands())
                grid.block(band);
        int conflict = -1;
        for (int i = 0; i < netlist.numInstances(); ++i) {
            if (is_movable[i])
                continue;
            const Instance &inst = netlist.instance(i);
            const Rect rect = Rect::fromCenter(
                inst.pos, inst.paddedWidth(), inst.paddedHeight());
            if (!grid.canPlace(rect)) {
                conflict = i;
                break;
            }
            grid.occupy(rect, i);
        }
        if (conflict < 0)
            break;
        if (restart >= netlist.numInstances())
            return false; // every demotion shrinks the fixed set; bail
        const Instance &inst = netlist.instance(conflict);
        if (inst.kind == InstanceKind::ResonatorSegment &&
            inst.resonator >= 0) {
            for (int seg : netlist.resonator(inst.resonator).segments)
                is_movable[seg] = 1;
        } else {
            is_movable[conflict] = 1;
        }
    }

    // --- Stage 1: movable qubits (greedy spiral, central-first). ---
    Trace::Span spiral(trace, "spiral");
    std::vector<int> movable_qubits;
    for (int q = 0; q < netlist.numQubits(); ++q)
        if (is_movable[q])
            movable_qubits.push_back(q);
    if (!spiralLegalizeQubits(netlist, grid, multi ? &plan : nullptr,
                              movable_qubits, result.qubitDisplacementUm))
        return false;
    spiral.stop();

    // --- Stage 2: movable segments (Tetris). ---
    if (cancel && cancel->cancelled()) {
        result.cancelled = true;
        return true;
    }
    Trace::Span tetris(trace, "tetris");
    std::vector<int> movable_res;
    for (const Resonator &res : netlist.resonators())
        if (!res.segments.empty() && is_movable[res.segments.front()])
            movable_res.push_back(res.id);
    if (!tetrisLegalizeSegments(netlist, grid, params_.resonanceCheck,
                                rule_, result.segmentDisplacementUm,
                                &movable_res)) {
        return false;
    }
    tetris.stop();

    // --- Stage 3: integration-aware repair of the moved chains. ---
    if (cancel && cancel->cancelled()) {
        result.cancelled = true;
        return true;
    }
    Trace::Span integration(trace, "integration");
    if (params_.integration && !movable_res.empty()) {
        IntegrationLegalizer integrator(params_.resonanceCheck, rule_);
        result.integration = integrator.run(netlist, grid, &movable_res);
    }
    return true;
}

LegalizeResult
Legalizer::legalize(Netlist &netlist, const CancelToken *cancel,
                    const std::vector<int> *movable, Trace *trace) const
{
    std::vector<char> is_movable(netlist.numInstances(), movable ? 0 : 1);
    if (movable) {
        // Closure: a resonator with any movable segment moves as a
        // whole, so the Tetris scan re-drops complete chains.
        for (int id : *movable)
            if (id >= 0 && id < netlist.numInstances())
                is_movable[id] = 1;
        for (const Resonator &res : netlist.resonators()) {
            bool any = false;
            for (int seg : res.segments)
                any = any || (is_movable[seg] != 0);
            if (any)
                for (int seg : res.segments)
                    is_movable[seg] = 1;
        }
    }

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
            // Fixed instances keep their legal sites; only the movable
            // set restarts from the input.
            for (int i = 0; i < netlist.numInstances(); ++i)
                if (is_movable[i])
                    netlist.instance(i).pos = snapshot[i];
            warn(str("Legalizer: retrying with region grown ",
                     (grow - 1.0) * 100.0, "%"));
        }
        if (attempt(netlist, is_movable, result, cancel, trace)) {
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
