#include "eval/hotspot.hpp"

#include <algorithm>

#include "eval/area.hpp"
#include "geometry/spatial_hash.hpp"
#include "util/logging.hpp"

namespace qplacer {

HotspotReport
analyzeHotspots(const Netlist &netlist, const CrosstalkRule &rule)
{
    HotspotReport report;
    const auto &instances = netlist.instances();
    if (instances.empty())
        return report;

    double max_extent = 0.0;
    std::vector<Rect> region_rects;
    region_rects.reserve(instances.size());
    for (const Instance &inst : instances) {
        max_extent = std::max(
            {max_extent, inst.paddedWidth(), inst.paddedHeight()});
        region_rects.push_back(inst.paddedRect());
    }
    const Rect extent = boundingBox(region_rects);

    SpatialHash hash(extent, std::max(max_extent, 1.0));
    for (const Instance &inst : instances)
        hash.insert(inst.id, inst.pos);

    const double query_radius = max_extent + rule.adjacencyTolUm;
    for (const Instance &inst : instances) {
        const Rect mine = inst.paddedRect();
        for (std::int32_t other : hash.query(inst.pos, query_radius)) {
            if (other <= inst.id)
                continue; // each unordered pair once
            const Instance &o = instances[other];
            double gap = 0.0;
            if (!rule.hotspotPair(inst, o, gap))
                continue;
            const Rect theirs = o.paddedRect();

            HotspotPair pair;
            pair.a = inst.id;
            pair.b = other;
            pair.gapUm = gap;
            pair.distUm = inst.pos.dist(o.pos);
            // Shared-boundary length: inflate by half the tolerance so
            // barely-separated footprints still register a length.
            pair.overlapLenUm =
                mine.inflated(rule.adjacencyTolUm / 2.0)
                    .overlapLength(
                        theirs.inflated(rule.adjacencyTolUm / 2.0));
            report.pairs.push_back(pair);
        }
    }

    // P_h (Eq. 18), expressed as a percentage.
    const AreaMetrics area = computeArea(netlist);
    double acc = 0.0;
    for (const HotspotPair &p : report.pairs)
        acc += p.overlapLenUm * p.distUm;
    report.phPercent =
        area.apolyUm2 > 0.0 ? 100.0 * acc / area.apolyUm2 : 0.0;

    // Impacted qubits: endpoints of violating qubit pairs, plus every
    // qubit hanging off a violating resonator (crosstalk propagates
    // through the coupler, Section VI-B).
    std::vector<char> impacted(netlist.numQubits(), 0);
    auto mark_instance = [&](int inst_id) {
        const Instance &inst = instances[inst_id];
        if (inst.kind == InstanceKind::Qubit) {
            impacted[inst.id] = 1;
        } else {
            const Resonator &res = netlist.resonator(inst.resonator);
            impacted[res.qubitA] = 1;
            impacted[res.qubitB] = 1;
        }
    };
    for (const HotspotPair &p : report.pairs) {
        mark_instance(p.a);
        mark_instance(p.b);
    }
    for (int q = 0; q < netlist.numQubits(); ++q) {
        if (impacted[q])
            report.impactedQubits.push_back(q);
    }
    return report;
}

} // namespace qplacer
