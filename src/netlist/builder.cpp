#include "netlist/builder.hpp"

#include <algorithm>
#include <limits>

#include "physics/resonator.hpp"
#include "util/logging.hpp"
#include "util/trace.hpp"

namespace qplacer {

NetlistBuilder::NetlistBuilder(PartitionParams params)
    : params_(params)
{
}

Netlist
NetlistBuilder::build(const Topology &topo, const FrequencyAssignment &freqs,
                      double target_util, Trace *trace) const
{
    const int nq = topo.numQubits();
    if (static_cast<int>(freqs.qubitFreqHz.size()) != nq ||
        static_cast<int>(freqs.resonatorFreqHz.size()) !=
            topo.numCouplers()) {
        fatal("NetlistBuilder: frequency assignment does not match "
              "topology");
    }

    const int nc = topo.numCouplers();
    const auto &edges = topo.coupling.edges();

    // --- Per-coupler segment counts and prefix-summed offsets. ---
    // seg_offset[e]: first segment-instance ordinal of coupler e;
    // net_offset[e]: its first net (nseg + 1 nets per coupler). Sizing
    // every array up front lets the fill write each slot in place.
    Trace::Span segments(trace, "segments");
    std::vector<double> length_um(nc);
    std::vector<int> nseg(nc);
    std::vector<int> seg_offset(nc + 1, 0);
    std::vector<int> net_offset(nc + 1, 0);
    for (int e = 0; e < nc; ++e) {
        length_um[e] = resonatorLengthUm(freqs.resonatorFreqHz[e]);
        nseg[e] = segmentCount(length_um[e], params_);
        seg_offset[e + 1] = seg_offset[e] + nseg[e];
        net_offset[e + 1] = net_offset[e] + nseg[e] + 1;
    }
    const int total_segments = seg_offset[nc];
    segments.stop();

    // --- Instance / net / resonator fill at the precomputed offsets. ---
    Trace::Span fill(trace, "instances");
    std::vector<Instance> instances(
        static_cast<std::size_t>(nq) + total_segments);
    std::vector<Net> nets(static_cast<std::size_t>(net_offset[nc]));
    std::vector<Resonator> resonators(static_cast<std::size_t>(nc));
    for (int q = 0; q < nq; ++q) {
        Instance &inst = instances[q];
        inst.kind = InstanceKind::Qubit;
        inst.id = q;
        inst.qubit = q;
        inst.freqHz = freqs.qubitFreqHz[q];
        inst.width = kQubitSizeUm;
        inst.height = kQubitSizeUm;
        inst.pad = params_.qubitPadUm;
    }
    for (int e = 0; e < nc; ++e) {
        Resonator &res = resonators[e];
        res.id = e;
        res.edge = e;
        res.qubitA = edges[e].first;
        res.qubitB = edges[e].second;
        res.freqHz = freqs.resonatorFreqHz[e];
        res.lengthUm = length_um[e];
        const int base = nq + seg_offset[e];
        res.segments.resize(nseg[e]);
        for (int s = 0; s < nseg[e]; ++s) {
            Instance &seg = instances[base + s];
            seg.kind = InstanceKind::ResonatorSegment;
            seg.id = base + s;
            seg.resonator = e;
            seg.segment = s;
            seg.freqHz = res.freqHz;
            seg.width = params_.segmentUm;
            seg.height = params_.segmentUm;
            seg.pad = params_.resonatorPadUm;
            res.segments[s] = seg.id;
        }
        Net *net = nets.data() + net_offset[e];
        *net++ = Net{res.qubitA, res.segments.front(), 1.0};
        for (int s = 0; s + 1 < nseg[e]; ++s)
            *net++ = Net{res.segments[s], res.segments[s + 1], 1.0};
        *net = Net{res.segments.back(), res.qubitB, 1.0};
    }
    Netlist netlist;
    netlist.adopt(std::move(instances), std::move(nets),
                  std::move(resonators), nq);
    fill.stop();

    Trace::Span size_region(trace, "finalize");
    netlist.sizeRegion(target_util);
    size_region.stop();

    // --- Warm-start positions: qubits on the embedding scaled to fill
    // ~80% of the region, centered; segments evenly along the straight
    // line between their endpoints. ---
    Trace::Span warm_start(trace, "warm_start");
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

    std::vector<Instance> &insts = netlist.instances();
    for (int q = 0; q < nq; ++q)
        insts[q].pos =
            region_center + (topo.embedding[q] - emb_center) * scale;
    for (const Resonator &res : netlist.resonators()) {
        const Vec2 a = insts[res.qubitA].pos;
        const Vec2 b = insts[res.qubitB].pos;
        const auto count = static_cast<double>(res.segments.size());
        for (std::size_t s = 0; s < res.segments.size(); ++s) {
            const double t = (static_cast<double>(s) + 1.0) / (count + 1.0);
            insts[res.segments[s]].pos = a + (b - a) * t;
        }
    }
    warm_start.stop();

    Trace::Span finalize(trace, "finalize");
    netlist.clampIntoRegion();
    netlist.validate();
    return netlist;
}

} // namespace qplacer
