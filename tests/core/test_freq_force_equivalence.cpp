/**
 * @file
 * The banded neighbour-grid frequency force against the all-distance
 * pair-list oracle in tests/oracles: the gradient must match bit for
 * bit (memcmp) on paper devices and a 256-qubit grid, at the warm start
 * and after 50 and 200 Nesterov iterations, with coincident instances,
 * with positions outside the region and on a synthetic netlist built
 * around the frequency-band edges, and on a seeded crowd whose one band
 * holds hundreds of distinct frequencies, at 1, 2, 3, 4 and 7 threads,
 * each against one serial oracle evaluation. ctest -L plan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>

#include "core/freq_force.hpp"
#include "core/placer.hpp"
#include "freq/assigner.hpp"
#include "netlist/builder.hpp"
#include "oracles/oracles.hpp"
#include "topology/generators.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace qplacer {
namespace {

constexpr int kThreadCounts[] = {1, 2, 3, 4, 7};

Netlist
buildNetlist(const Topology &topo)
{
    const auto freqs = FrequencyAssigner().assign(topo);
    return NetlistBuilder().build(topo, freqs);
}

std::vector<Vec2>
positionsOf(const Netlist &nl)
{
    std::vector<Vec2> pos;
    pos.reserve(nl.instances().size());
    for (const Instance &inst : nl.instances())
        pos.push_back(inst.pos);
    return pos;
}

/** Positions after @p iters Nesterov iterations from the warm start. */
std::vector<Vec2>
placedPositions(const Topology &topo, int iters)
{
    Netlist nl = buildNetlist(topo);
    PlacerParams params;
    params.threads = 1;
    params.maxIters = iters;
    params.minIters = iters;
    params.stopOverflow = 0.0; // run the whole budget
    GlobalPlacer(params).place(nl);
    return positionsOf(nl);
}

/**
 * Evaluate the oracle on @p pos once, serially, and the production
 * force at every thread count, and require identical bits. Returns the
 * number of instances that felt a force (so callers can check the case
 * is live).
 */
int
expectBitIdentical(const Netlist &nl, const std::vector<Vec2> &pos,
                   const std::string &what)
{
    const CrosstalkRule rule;
    const oracle::PairListFreqForce ref(nl, rule.detuningThresholdHz,
                                        FreqForceModel::kCutoffFactor);
    std::vector<Vec2> grad_ref;
    ref.evaluate(pos, grad_ref);
    int pushed = 0;
    for (const Vec2 &g : grad_ref)
        pushed += g.x != 0.0 || g.y != 0.0;

    for (int threads : kThreadCounts) {
        ThreadPool pool(threads);
        const FreqForceModel model(nl, rule.detuningThresholdHz,
                                   FreqForceModel::kCutoffFactor, &pool);
        std::vector<Vec2> grad;
        model.evaluate(pos, grad);
        if (grad.size() != grad_ref.size()) {
            ADD_FAILURE() << what << ": gradient sizes differ";
            return 0;
        }
        EXPECT_EQ(std::memcmp(grad.data(), grad_ref.data(),
                              grad.size() * sizeof(Vec2)),
                  0)
            << what << " threads=" << threads << ": gradient differs";
        // Evaluating twice reuses the grid storage; the bits must hold.
        model.evaluate(pos, grad);
        EXPECT_EQ(std::memcmp(grad.data(), grad_ref.data(),
                              grad.size() * sizeof(Vec2)),
                  0)
            << what << " threads=" << threads << ": re-evaluation";
    }
    return pushed;
}

struct Device
{
    const char *name;
    Topology (*make)();
};

void
PrintTo(const Device &device, std::ostream *os)
{
    *os << device.name;
}

Topology
makeGrid16x16()
{
    return makeGrid(16, 16);
}

class FreqForceEquivalence : public ::testing::TestWithParam<Device>
{
};

TEST_P(FreqForceEquivalence, WarmStartAndNesterovIterates)
{
    const Topology topo = GetParam().make();
    const Netlist nl = buildNetlist(topo);
    ASSERT_GE(nl.instances().size(), ThreadPool::kGrainMedium)
        << "too small to exercise the threaded gather";
    // The force is dormant whenever every resonant pair happens to be
    // isolated, so only require it live at some snapshot.
    int pushed = expectBitIdentical(nl, positionsOf(nl), "warm start");
    for (int iters : {50, 200}) {
        pushed += expectBitIdentical(
            nl, placedPositions(topo, iters),
            "after " + std::to_string(iters) + " iterations");
    }
    EXPECT_GT(pushed, 0) << "force dormant at every snapshot";
}

INSTANTIATE_TEST_SUITE_P(
    Devices, FreqForceEquivalence,
    ::testing::Values(Device{"Falcon", &makeFalcon},
                      Device{"AspenM", &makeAspenM},
                      Device{"Eagle", &makeEagle},
                      Device{"Grid16x16", &makeGrid16x16}),
    [](const ::testing::TestParamInfo<Device> &info) {
        return std::string(info.param.name);
    });

TEST(FreqForceEquivalenceEdge, CoincidentInstances)
{
    // Every instance on one of three points: the clamp and the
    // index-derived tie-break direction must match, and the grid sees
    // a degenerate (zero-area) bounding box.
    const Netlist nl = buildNetlist(makeAspenM());
    std::vector<Vec2> pos = positionsOf(nl);
    const Vec2 points[] = {{500, 500}, {500, 500}, {900, 700}};
    for (std::size_t i = 0; i < pos.size(); ++i)
        pos[i] = points[i % 3];
    EXPECT_GT(expectBitIdentical(nl, pos, "coincident"), 0);

    std::vector<Vec2> one_point(pos.size(), Vec2(1234.5, -77.0));
    EXPECT_GT(expectBitIdentical(nl, one_point, "one point"), 0);
}

TEST(FreqForceEquivalenceEdge, PositionsOutsideTheRegion)
{
    // The warm start translated and scaled so most instances fall
    // outside the region, plus a few far-flung outliers that stretch
    // the bounding box far beyond the cell budget.
    const Netlist nl = buildNetlist(makeAspenM());
    const Rect region = nl.region();
    std::vector<Vec2> pos = positionsOf(nl);
    for (Vec2 &p : pos)
        p = Vec2(p.x * 0.5 - region.width(), p.y * 0.5 + region.height());
    EXPECT_GT(expectBitIdentical(nl, pos, "shifted"), 0);

    pos[0] = Vec2(-1e9, -1e9);
    pos[1] = Vec2(1e9, 3e8);
    pos[2] = pos[1];
    EXPECT_GT(expectBitIdentical(nl, pos, "outliers"), 0);
}

TEST(FreqForceEquivalenceEdge, FrequencyBandEdges)
{
    // Charges (padded sizes) of 1000 um for qubits and 100 um for
    // segments; at the default cutoff 0.8 the pair radii are 1600 um
    // (qubit-qubit), 880 um (qubit-segment) and 160 um (segment-segment).
    const double dc = CrosstalkRule().detuningThresholdHz;
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    Netlist nl;
    std::vector<Vec2> pos;
    const auto add = [&](InstanceKind kind, double freq_hz, int resonator,
                         Vec2 p) {
        Instance inst;
        inst.kind = kind;
        inst.width = inst.height =
            kind == InstanceKind::Qubit ? 980.0 : 80.0;
        inst.pad = 20.0;
        inst.freqHz = freq_hz;
        inst.resonator = resonator;
        nl.addInstance(inst);
        pos.push_back(p);
    };
    constexpr InstanceKind kQubit = InstanceKind::Qubit;
    constexpr InstanceKind kSegment = InstanceKind::ResonatorSegment;

    // A chain of qubits dc - 1 Hz apart, 300 um apart on a row: one band
    // spanning 4 (dc - 1) Hz, in which only consecutive links resonate.
    const double f0 = 5e9;
    for (int k = 0; k < 5; ++k)
        add(kQubit, f0 + k * (dc - 1.0), -1, Vec2(300.0 * k, 0.0));
    // Exactly dc above the chain's top (no instance in between), a band
    // mixing a qubit with segments on a row (added below, after every
    // qubit). Every segment is within the qubit-segment radius of the
    // qubit, but the 500 um and further ones lie beyond twice the
    // segment-segment radius. Two segments share a resonator and never
    // repel.
    const double fm = f0 + 4.0 * (dc - 1.0) + dc;
    add(kQubit, fm, -1, Vec2(0.0, 5000.0));
    // A lone qubit, next to the chain in space only.
    add(kQubit, 8e9, -1, Vec2(100.0, 100.0));
    // A band with no finite position.
    add(kQubit, 9e9, -1, Vec2(nan, 0.0));
    add(kSegment, 9e9, 4, Vec2(inf, inf));
    add(kSegment, 9e9 + 1e6, 5, Vec2(0.0, -inf));
    // The mixed band's segments.
    add(kSegment, fm + 1e6, 0, Vec2(300.0, 5000.0));
    add(kSegment, fm + 2e6, 1, Vec2(500.0, 5000.0));
    add(kSegment, fm, 2, Vec2(700.0, 5000.0));
    add(kSegment, fm, 2, Vec2(750.0, 5000.0));
    add(kSegment, fm + 3e6, 3, Vec2(820.0, 5000.0));

    EXPECT_GT(expectBitIdentical(nl, pos, "band edges"), 0);

    // Every finite position on one point: the index tie-break.
    for (Vec2 &p : pos) {
        if (std::isfinite(p.x) && std::isfinite(p.y))
            p = Vec2(10.0, 20.0);
    }
    EXPECT_GT(expectBitIdentical(nl, pos, "band edges, one point"), 0);
}

TEST(FreqForceEquivalenceEdge, CrowdedBandOfDistinctFrequencies)
{
    // 800 instances, every frequency distinct and drawn from a 3 Delta_c
    // window (so one band, in which a pair resonates only when its draws
    // are closer than Delta_c), on a square about six band radii wide:
    // a query row spans 3 cells whose slot frequencies jump at each cell
    // boundary, and every instance has dozens of partners in range. The
    // last third are segments, three to a resonator.
    const double dc = CrosstalkRule().detuningThresholdHz;
    const double cutoff = FreqForceModel::kCutoffFactor;
    Rng rng(27);
    Netlist nl;
    std::vector<Vec2> pos;
    for (int k = 0; k < 800; ++k) {
        Instance inst;
        const bool segment = k >= 536;
        inst.kind = segment ? InstanceKind::ResonatorSegment
                            : InstanceKind::Qubit;
        inst.width = rng.uniform(160.0, 200.0);
        inst.height = rng.uniform(160.0, 200.0);
        inst.pad = 10.0;
        inst.freqHz = 6e9 + rng.uniform(0.0, 3.0 * dc);
        inst.resonator = segment ? (k - 536) / 3 : -1;
        nl.addInstance(inst);
        pos.push_back(Vec2(rng.uniform(0.0, 2000.0),
                           rng.uniform(0.0, 2000.0)));
    }

    // The case is live only if its partner counts are what it claims.
    const std::vector<double> freqs = nl.frequencies();
    const std::vector<int> groups = nl.resonatorGroups();
    int most = 0;
    for (std::size_t i = 0; i < pos.size(); ++i) {
        int partners = 0;
        const double qi = std::sqrt(nl.instances()[i].paddedArea());
        for (std::size_t j = 0; j < pos.size(); ++j) {
            const double qj = std::sqrt(nl.instances()[j].paddedArea());
            partners += j != i && std::abs(freqs[i] - freqs[j]) < dc &&
                        (groups[i] < 0 || groups[i] != groups[j]) &&
                        (pos[i] - pos[j]).norm() < cutoff * (qi + qj);
        }
        most = std::max(most, partners);
    }
    EXPECT_GE(most, 36);

    EXPECT_GT(expectBitIdentical(nl, pos, "crowded band"), 700);
}

} // namespace
} // namespace qplacer
