#include "eval/hotspot.hpp"

#include <algorithm>

#include "eval/area.hpp"
#include "geometry/near_pairs.hpp"
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
    std::vector<NearPoint> centres;
    centres.reserve(instances.size());
    for (const Instance &inst : instances) {
        max_extent = std::max(
            {max_extent, inst.paddedWidth(), inst.paddedHeight()});
        centres.push_back(NearPoint{inst.pos, inst.id});
    }

    // Candidates are the pairs whose centres lie within one padded
    // extent plus the tolerance. A diagonal neighbour's centre can be
    // up to sqrt(2) extents away, so this misses some adjacent pairs.
    const double reach = max_extent + rule.adjacencyTolUm;
    forEachNearPair(centres, reach, [&](int a, int b) {
        const Instance &inst = instances[a];
        const Instance &o = instances[b];
        if ((o.pos - inst.pos).normSq() > reach * reach)
            return;
        double gap = 0.0;
        if (!rule.hotspotPair(inst, o, gap))
            return;
        HotspotPair pair;
        pair.a = a;
        pair.b = b;
        pair.gapUm = gap;
        pair.distUm = inst.pos.dist(o.pos);
        // Shared-boundary length: inflate by half the tolerance so
        // barely-separated footprints still register a length.
        pair.overlapLenUm =
            inst.paddedRect()
                .inflated(rule.adjacencyTolUm / 2.0)
                .overlapLength(
                    o.paddedRect().inflated(rule.adjacencyTolUm / 2.0));
        report.pairs.push_back(pair);
    });
    std::sort(report.pairs.begin(), report.pairs.end(),
              [](const HotspotPair &p, const HotspotPair &q) {
                  return p.a < q.a || (p.a == q.a && p.b < q.b);
              });

    // P_h (Eq. 18), expressed as a percentage, summed in (a, b) order.
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
