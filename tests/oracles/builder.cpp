#include <algorithm>
#include <limits>

#include "oracles/oracles.hpp"
#include "physics/resonator.hpp"

namespace qplacer::oracle {

Netlist
buildReference(const Topology &topo, const FrequencyAssignment &freqs,
               double target_util, const PartitionParams &params)
{
    const int nq = topo.numQubits();
    Netlist netlist;

    // Qubit instances first (ids 0..nq-1 match topology qubit ids).
    for (int q = 0; q < nq; ++q) {
        Instance inst;
        inst.kind = InstanceKind::Qubit;
        inst.qubit = q;
        inst.freqHz = freqs.qubitFreqHz[q];
        inst.width = kQubitSizeUm;
        inst.height = kQubitSizeUm;
        inst.pad = params.qubitPadUm;
        netlist.addInstance(inst);
    }

    // One segment chain per coupler.
    const auto &edges = topo.coupling.edges();
    for (int e = 0; e < topo.numCouplers(); ++e) {
        Resonator res;
        res.edge = e;
        res.qubitA = edges[e].first;
        res.qubitB = edges[e].second;
        res.freqHz = freqs.resonatorFreqHz[e];
        res.lengthUm = resonatorLengthUm(res.freqHz);

        const int nseg = segmentCount(res.lengthUm, params);
        for (int s = 0; s < nseg; ++s) {
            Instance seg;
            seg.kind = InstanceKind::ResonatorSegment;
            seg.resonator = static_cast<int>(netlist.resonators().size());
            seg.segment = s;
            seg.freqHz = res.freqHz;
            seg.width = params.segmentUm;
            seg.height = params.segmentUm;
            seg.pad = params.resonatorPadUm;
            res.segments.push_back(netlist.addInstance(seg));
        }
        netlist.addResonator(res);

        // Connectivity nets: qubit -- chain -- qubit.
        netlist.addNet(res.qubitA, res.segments.front());
        for (std::size_t s = 0; s + 1 < res.segments.size(); ++s)
            netlist.addNet(res.segments[s], res.segments[s + 1]);
        netlist.addNet(res.segments.back(), res.qubitB);
    }

    netlist.sizeRegion(target_util);

    // Warm-start positions from the topology embedding, scaled to fill
    // ~80% of the region, centered.
    Rect emb(std::numeric_limits<double>::max(),
             std::numeric_limits<double>::max(),
             std::numeric_limits<double>::lowest(),
             std::numeric_limits<double>::lowest());
    for (const Vec2 &p : topo.embedding) {
        emb.lo.x = std::min(emb.lo.x, p.x);
        emb.lo.y = std::min(emb.lo.y, p.y);
        emb.hi.x = std::max(emb.hi.x, p.x);
        emb.hi.y = std::max(emb.hi.y, p.y);
    }
    const Rect &region = netlist.region();
    const double emb_w = std::max(emb.width(), 1e-6);
    const double emb_h = std::max(emb.height(), 1e-6);
    const double scale =
        0.8 * std::min(region.width() / emb_w, region.height() / emb_h);
    const Vec2 emb_center = emb.center();
    const Vec2 region_center = region.center();

    auto place = [&](const Vec2 &p) {
        return region_center + (p - emb_center) * scale;
    };
    for (int q = 0; q < nq; ++q)
        netlist.instance(q).pos = place(topo.embedding[q]);
    for (const Resonator &res : netlist.resonators()) {
        const Vec2 a = netlist.instance(res.qubitA).pos;
        const Vec2 b = netlist.instance(res.qubitB).pos;
        const auto nseg = static_cast<double>(res.segments.size());
        for (std::size_t s = 0; s < res.segments.size(); ++s) {
            const double t =
                (static_cast<double>(s) + 1.0) / (nseg + 1.0);
            netlist.instance(res.segments[s]).pos = a + (b - a) * t;
        }
    }

    netlist.clampIntoRegion();
    netlist.validate();
    return netlist;
}

} // namespace qplacer::oracle
