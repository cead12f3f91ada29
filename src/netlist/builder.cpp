#include "netlist/builder.hpp"

#include <algorithm>
#include <limits>

#include "physics/resonator.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace qplacer {

NetlistBuilder::NetlistBuilder(PartitionParams params)
    : params_(params)
{
}

Netlist
NetlistBuilder::build(const Topology &topo, const FrequencyAssignment &freqs,
                      double target_util, ThreadPool *pool,
                      Trace *trace) const
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
    const std::size_t grain = ThreadPool::kGrainMedium;

    // --- Per-coupler segment counts and prefix-summed offsets. ---
    Trace::Span segments(trace, "segments");
    std::vector<double> length_um(nc);
    std::vector<int> nseg(nc);
    parallelFor(
        pool, static_cast<std::size_t>(nc),
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t e = begin; e < end; ++e) {
                length_um[e] = resonatorLengthUm(freqs.resonatorFreqHz[e]);
                nseg[e] = segmentCount(length_um[e], params_);
            }
        },
        grain);
    // seg_offset[e]: first segment-instance ordinal of coupler e;
    // net_offset[e]: its first net (nseg + 1 nets per coupler). Plain
    // serial prefix sums -- integer, O(nc), and the determinism anchor
    // for every fill below.
    std::vector<int> seg_offset(nc + 1, 0);
    std::vector<int> net_offset(nc + 1, 0);
    for (int e = 0; e < nc; ++e) {
        seg_offset[e + 1] = seg_offset[e] + nseg[e];
        net_offset[e + 1] = net_offset[e] + nseg[e] + 1;
    }
    const int total_segments = seg_offset[nc];
    segments.stop();

    // --- Instance / net / resonator fill at precomputed offsets. ---
    // Every slot is written exactly once from per-item formulas, so
    // chunk boundaries cannot change a single bit of the result.
    Trace::Span fill(trace, "instances");
    std::vector<Instance> instances(
        static_cast<std::size_t>(nq) + total_segments);
    std::vector<Net> nets(static_cast<std::size_t>(net_offset[nc]));
    std::vector<Resonator> resonators(static_cast<std::size_t>(nc));
    parallelFor(
        pool, static_cast<std::size_t>(nq),
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t q = begin; q < end; ++q) {
                Instance inst;
                inst.kind = InstanceKind::Qubit;
                inst.id = static_cast<int>(q);
                inst.qubit = static_cast<int>(q);
                inst.freqHz = freqs.qubitFreqHz[q];
                inst.width = kQubitSizeUm;
                inst.height = kQubitSizeUm;
                inst.pad = params_.qubitPadUm;
                instances[q] = inst;
            }
        },
        grain);
    parallelFor(
        pool, static_cast<std::size_t>(nc),
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t e = begin; e < end; ++e) {
                Resonator res;
                res.id = static_cast<int>(e);
                res.edge = static_cast<int>(e);
                res.qubitA = edges[e].first;
                res.qubitB = edges[e].second;
                res.freqHz = freqs.resonatorFreqHz[e];
                res.lengthUm = length_um[e];
                const int base = nq + seg_offset[e];
                res.segments.resize(nseg[e]);
                for (int s = 0; s < nseg[e]; ++s) {
                    Instance seg;
                    seg.kind = InstanceKind::ResonatorSegment;
                    seg.id = base + s;
                    seg.resonator = static_cast<int>(e);
                    seg.segment = s;
                    seg.freqHz = res.freqHz;
                    seg.width = params_.segmentUm;
                    seg.height = params_.segmentUm;
                    seg.pad = params_.resonatorPadUm;
                    instances[seg.id] = seg;
                    res.segments[s] = seg.id;
                }
                Net *net = nets.data() + net_offset[e];
                *net++ = Net{res.qubitA, res.segments.front(), 1.0};
                for (int s = 0; s + 1 < nseg[e]; ++s)
                    *net++ = Net{res.segments[s], res.segments[s + 1],
                                 1.0};
                *net = Net{res.segments.back(), res.qubitB, 1.0};
                resonators[e] = std::move(res);
            }
        },
        grain);
    Netlist netlist;
    netlist.adopt(std::move(instances), std::move(nets),
                  std::move(resonators), nq);
    fill.stop();

    Trace::Span size_region(trace, "finalize");
    netlist.sizeRegion(target_util);
    size_region.stop();

    // --- Warm-start positions: qubits on the embedding scaled to fill
    // ~80% of the region, centered; segments evenly along the straight
    // line between their endpoints. The bbox scan stays serial: min/max
    // over nq points is cheap. ---
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
    parallelFor(
        pool, static_cast<std::size_t>(nq),
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t q = begin; q < end; ++q) {
                insts[q].pos = region_center +
                               (topo.embedding[q] - emb_center) * scale;
            }
        },
        grain);
    // Qubit positions are complete before this region starts; each
    // coupler only reads its two endpoint qubits and writes its own
    // segment span.
    parallelFor(
        pool, static_cast<std::size_t>(nc),
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t e = begin; e < end; ++e) {
                const Resonator &res = netlist.resonators()[e];
                const Vec2 a = insts[res.qubitA].pos;
                const Vec2 b = insts[res.qubitB].pos;
                const auto count =
                    static_cast<double>(res.segments.size());
                for (std::size_t s = 0; s < res.segments.size(); ++s) {
                    const double t =
                        (static_cast<double>(s) + 1.0) / (count + 1.0);
                    insts[res.segments[s]].pos = a + (b - a) * t;
                }
            }
        },
        grain);
    warm_start.stop();

    Trace::Span finalize(trace, "finalize");
    netlist.clampIntoRegion();
    netlist.validate();
    return netlist;
}

} // namespace qplacer
