/**
 * @file
 * Equivalence of the assign/build engines against the test-only oracles
 * in tests/oracles: the saturation-heap DSATUR must colour every graph
 * exactly like the linear-scan oracle, full assignments must carry the
 * oracle colourings on the paper topologies (and a 1024-qubit grid),
 * the sparse violation counter must agree with the all-pairs scan, and
 * the prefix-summed parallel builder must reproduce the sequential
 * netlist bit for bit at any thread count. ctest -L assign.
 */

#include <gtest/gtest.h>

#include "freq/assigner.hpp"
#include "netlist/builder.hpp"
#include "oracles/oracles.hpp"
#include "topology/generators.hpp"
#include "util/rng.hpp"

namespace qplacer {
namespace {

Graph
randomGraph(int n, double edge_prob, Rng &rng)
{
    Graph g(n);
    for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v) {
            if (rng.uniform() < edge_prob)
                g.addEdge(u, v);
        }
    }
    return g;
}

Graph
starGraph(int n, Rng &rng)
{
    Graph g(n);
    for (int v = 1; v < n; ++v)
        g.addEdge(0, v);
    // A few random chords so saturation ties actually occur.
    for (int u = 1; u < n; ++u) {
        for (int v = u + 1; v < n; ++v) {
            if (rng.uniform() < 0.05)
                g.addEdge(u, v);
        }
    }
    return g;
}

Graph
pathGraph(int n)
{
    Graph g(n);
    for (int v = 0; v + 1 < n; ++v)
        g.addEdge(v, v + 1);
    return g;
}

void
expectProperColoring(const Graph &g, const std::vector<int> &color)
{
    for (const auto &[u, v] : g.edges()) {
        EXPECT_GE(color[u], 0);
        EXPECT_NE(color[u], color[v]) << "edge " << u << "-" << v;
    }
}

/** The assigner's qubit interference graph: couplings + distance 2. */
Graph
interferenceGraph(const Topology &topo)
{
    const Graph &coupling = topo.coupling;
    Graph g(coupling.numNodes());
    for (const auto &[u, v] : coupling.edges())
        g.addEdge(u, v);
    for (int u = 0; u < coupling.numNodes(); ++u) {
        for (int v : coupling.ballAround(u, 2)) {
            if (v > u && !g.hasEdge(u, v))
                g.addEdge(u, v);
        }
    }
    return g;
}

/** @p out carries the oracle colourings of both interference graphs. */
void
expectOracleColorings(const Topology &topo, const FrequencyAssignment &out)
{
    EXPECT_EQ(out.qubitColor,
              oracle::dsaturReference(interferenceGraph(topo)));
    EXPECT_EQ(out.resonatorColor,
              oracle::dsaturReference(
                  oracle::resonatorShareGraphAllPairs(topo.coupling)));
}

TEST(DsaturEquivalence, RandomDenseAndSparse)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        for (const double p : {0.5, 0.08}) {
            Rng rng(seed);
            const Graph g = randomGraph(60, p, rng);
            const auto ref = oracle::dsaturReference(g);
            const auto fast = FrequencyAssigner::dsatur(g);
            EXPECT_EQ(ref, fast) << "seed " << seed << " p " << p;
            expectProperColoring(g, fast);
        }
    }
}

TEST(DsaturEquivalence, StarAndPath)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed);
        const Graph star = starGraph(50, rng);
        EXPECT_EQ(oracle::dsaturReference(star),
                  FrequencyAssigner::dsatur(star));

        const Graph path = pathGraph(40 + static_cast<int>(seed));
        EXPECT_EQ(oracle::dsaturReference(path),
                  FrequencyAssigner::dsatur(path));
    }
}

TEST(DsaturEquivalence, EmptyAndIsolatedNodes)
{
    const Graph empty(0);
    EXPECT_TRUE(FrequencyAssigner::dsatur(empty).empty());

    Graph isolated(5); // no edges: everything gets colour 0
    const auto colors = FrequencyAssigner::dsatur(isolated);
    EXPECT_EQ(colors, oracle::dsaturReference(isolated));
    for (int c : colors)
        EXPECT_EQ(c, 0);
}

TEST(AssignEquivalence, PaperTopologies)
{
    for (const Topology &topo :
         {makeGrid(8, 8), makeHeavyHex(3, 5), makeOctagon(4, 4),
          makeEagle(), makeGrid(32, 32)}) {
        SCOPED_TRACE(topo.name);
        const FrequencyAssigner assigner;
        const auto out = assigner.assign(topo);
        expectOracleColorings(topo, out);
        EXPECT_EQ(assigner.countDomainViolations(topo, out),
                  oracle::countDomainViolationsAllPairs(
                      topo, out, kDetuningThresholdHz));
    }
}

TEST(AssignEquivalence, ViolationCountersAgreeUnderCollisions)
{
    // Force resonances by sampling frequencies from a tiny slot pool,
    // then check the sparse incident-list counter matches the all-pairs
    // scan exactly.
    const Topology topo = makeGrid(6, 6);
    const FrequencyAssigner assigner;

    FrequencyAssignment assignment = assigner.assign(topo);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed);
        for (double &f : assignment.qubitFreqHz)
            f = 5.0e9 + 0.05e9 * static_cast<double>(rng.below(3));
        for (double &f : assignment.resonatorFreqHz)
            f = 6.5e9 + 0.05e9 * static_cast<double>(rng.below(3));
        const int ref_count = oracle::countDomainViolationsAllPairs(
            topo, assignment, kDetuningThresholdHz);
        EXPECT_GT(ref_count, 0);
        EXPECT_EQ(ref_count, assigner.countDomainViolations(topo, assignment));
    }
}

TEST(AssignEquivalence, CrowdedHardClassesAliasDeterministically)
{
    // A 6-clique needs 6 hard colour classes; a band with room for only
    // 3 slots forces the aliasing fallback. Classes alias slots
    // round-robin (c % used), so exactly the 3 coupled pairs whose
    // classes collide stay resonant.
    Topology topo;
    topo.name = "K6";
    topo.coupling = Graph(6);
    for (int u = 0; u < 6; ++u)
        for (int v = u + 1; v < 6; ++v)
            topo.coupling.addEdge(u, v);
    topo.embedding = {{0, 0}, {1, 0}, {2, 0}, {0, 1}, {1, 1}, {2, 1}};

    const CrosstalkRule rule;
    AssignerParams params;
    params.qubitBand =
        FrequencyBand(5.0e9, 5.0e9 + 2.0 * rule.detuningThresholdHz);
    const FrequencyAssigner assigner(params, rule);

    const auto out = assigner.assign(topo);
    expectOracleColorings(topo, out);
    EXPECT_EQ(out.numQubitSlots, 3);

    // 6 classes on 3 slots: pairs (0,3), (1,4), (2,5) alias.
    const int violations = assigner.countDomainViolations(topo, out);
    EXPECT_EQ(violations, oracle::countDomainViolationsAllPairs(
                              topo, out, rule.detuningThresholdHz));
    EXPECT_EQ(violations, 3);
}

TEST(BuildEquivalence, BitwiseIdenticalToSequentialAppend)
{
    for (const Topology &topo : {makeGrid(32, 32), makeOctagon(4, 4)}) {
        SCOPED_TRACE(topo.name);
        const auto freqs = FrequencyAssigner().assign(topo);
        EXPECT_TRUE(bitwiseSameNetlist(
            oracle::buildReference(topo, freqs, 0.72, PartitionParams{}),
            NetlistBuilder().build(topo, freqs, 0.72)));
    }
}

} // namespace
} // namespace qplacer
