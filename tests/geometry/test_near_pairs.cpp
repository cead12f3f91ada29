/**
 * @file
 * The near-pair sweep (geometry/near_pairs.hpp), and the hotspot pairs
 * analyzeHotspots finds with it, against the all-pairs oracles in
 * tests/oracles: the (a, b)-sorted pair lists must match bit for bit
 * (memcmp) at adjacency tolerances 0, 50 and 150 um, on seeded random
 * layouts and on the placed layouts of Falcon, Aspen-M, Eagle and
 * grid16x16. Topology::minEmbeddingSpacing, which sweeps the embedding,
 * must return the all-pairs minimum's bits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "eval/hotspot.hpp"
#include "freq/assigner.hpp"
#include "geometry/near_pairs.hpp"
#include "netlist/builder.hpp"
#include "oracles/oracles.hpp"
#include "pipeline/session.hpp"
#include "topology/factory.hpp"
#include "topology/generators.hpp"
#include "util/rng.hpp"

namespace qplacer {
namespace {

constexpr double kTolerancesUm[] = {0.0, 50.0, 150.0};

using PairList = std::vector<std::pair<std::int32_t, std::int32_t>>;

template <class T>
bool
sameBytes(const std::vector<T> &a, const std::vector<T> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/** forEachNearPair over @p points, sorted by (a, b). */
PairList
sweptPairs(const std::vector<Vec2> &points, double reach)
{
    std::vector<NearPoint> centres;
    for (std::size_t i = 0; i < points.size(); ++i)
        centres.push_back(NearPoint{points[i], static_cast<std::int32_t>(i)});
    PairList out;
    forEachNearPair(centres, reach,
                    [&](std::int32_t a, std::int32_t b) {
                        out.emplace_back(a, b);
                    });
    std::sort(out.begin(), out.end());
    return out;
}

double
maxExtent(const Netlist &nl)
{
    double extent = 0.0;
    for (const Instance &inst : nl.instances())
        extent = std::max({extent, inst.paddedWidth(), inst.paddedHeight()});
    return extent;
}

/**
 * At every tolerance, the sweep's pairs at analyzeHotspots' reach and
 * the hotspot pairs against their oracles; returns the hotspot pairs
 * summed over the tolerances.
 */
std::size_t
expectPairsMatchOracles(const Netlist &nl, const std::string &label)
{
    std::vector<Vec2> centres;
    for (const Instance &inst : nl.instances())
        centres.push_back(inst.pos);
    std::size_t hotspots = 0;
    for (const double tol : kTolerancesUm) {
        SCOPED_TRACE(label + ", tolerance " + std::to_string(tol) + " um");
        const double reach = maxExtent(nl) + tol;
        const PairList swept = sweptPairs(centres, reach);
        const PairList near = oracle::nearPairs(centres, reach);
        EXPECT_TRUE(sameBytes(swept, near))
            << swept.size() << " swept vs " << near.size() << " near pairs";
        EXPECT_FALSE(near.empty());

        CrosstalkRule rule;
        rule.adjacencyTolUm = tol;
        const std::vector<HotspotPair> got = analyzeHotspots(nl, rule).pairs;
        const std::vector<HotspotPair> want = oracle::hotspotPairs(nl, rule);
        EXPECT_TRUE(sameBytes(got, want))
            << got.size() << " vs " << want.size() << " hotspot pairs";
        hotspots += want.size();
    }
    return hotspots;
}

TEST(NearPairs, MatchesAllPairsOnRandomPoints)
{
    // Coordinates on a 50 um lattice give ties in x, coincident points
    // and offsets exactly at the reach; a few points are not finite.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed);
        std::vector<Vec2> points;
        for (int i = 0; i < 400; ++i) {
            const double x = 50.0 * static_cast<double>(rng.below(100));
            const double y = 50.0 * static_cast<double>(rng.below(100));
            points.emplace_back(x, y);
        }
        points[7] = Vec2(nan, 100.0);
        points[11] = Vec2(inf, 100.0);
        points[12] = Vec2(inf, 100.0);
        points[13] = Vec2(100.0, -inf);
        for (const double reach : {0.0, 50.0, 800.0, 950.0}) {
            SCOPED_TRACE(::testing::Message()
                         << "seed " << seed << ", reach " << reach);
            const PairList swept = sweptPairs(points, reach);
            const PairList near = oracle::nearPairs(points, reach);
            EXPECT_TRUE(sameBytes(swept, near))
                << swept.size() << " vs " << near.size();
            EXPECT_FALSE(near.empty());
        }
    }
}

TEST(NearPairs, HotspotPairsMatchAllPairsOnRandomLayouts)
{
    // Falcon's cells scattered over its region, on a 25 um lattice.
    const Topology topo = makeFalcon();
    Netlist nl =
        NetlistBuilder().build(topo, FrequencyAssigner().assign(topo));
    const Rect region = nl.region();
    const auto cols = static_cast<std::uint64_t>(region.width() / 25.0);
    const auto rows = static_cast<std::uint64_t>(region.height() / 25.0);
    std::size_t hotspots = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed);
        for (int i = 0; i < nl.numInstances(); ++i) {
            const auto col = static_cast<double>(rng.below(cols));
            const auto row = static_cast<double>(rng.below(rows));
            nl.instance(i).pos =
                Vec2(region.lo.x + 25.0 * col, region.lo.y + 25.0 * row);
        }
        hotspots += expectPairsMatchOracles(
            nl, "Falcon scatter seed " + std::to_string(seed));
    }
    EXPECT_GT(hotspots, 0u);
}

TEST(NearPairs, HotspotPairsMatchAllPairsOnPlacedDevices)
{
    // Classic placements: the frequency force off, so resonant
    // neighbours abound.
    const std::pair<const char *, Topology> devices[] = {
        {"Falcon", makeFalcon()},
        {"Aspen-M", makeAspenM()},
        {"Eagle", makeEagle()},
        {"grid16x16", makeGrid(16, 16)}};
    for (const auto &[name, topo] : devices) {
        FlowParams params;
        params.mode = PlacerMode::Classic;
        params.placer.threads = 1;
        const FlowResult flow = PlacementSession().run(topo, params);
        ASSERT_TRUE(flow.status.ok()) << name << ": " << flow.status.message;
        EXPECT_GT(expectPairsMatchOracles(flow.netlist, name), 0u);
    }
}

TEST(NearPairs, MinEmbeddingSpacingMatchesAllPairs)
{
    std::vector<Topology> topologies;
    for (const std::string &name : paperTopologyNames())
        topologies.push_back(makeTopology(name));
    for (const char *spec : {"grid1x2", "grid7x3", "grid32x32",
                             "heavyhex3x9", "heavyhex6x5", "octagon1x1",
                             "octagon4x3", "grid8x8@dies=2x1"}) {
        Topology topo;
        std::string error;
        ASSERT_TRUE(resolveTopologySpec(spec, topo, &error)) << error;
        topologies.push_back(topo);
    }
    // Irregular embeddings: the first two qubits far apart (a wide
    // window), off-lattice coordinates, coincident and non-finite
    // points, and fewer than two finite points.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed);
        Topology topo;
        topo.name = "random seed " + std::to_string(seed);
        topo.embedding = {{0.0, 0.0}, {9000.0, 7000.0}};
        for (int i = 0; i < 300; ++i)
            topo.embedding.emplace_back(rng.uniform(0.0, 9000.0),
                                        rng.uniform(0.0, 7000.0));
        topo.embedding[5] = Vec2(nan, 10.0);
        topo.embedding[6] = Vec2(inf, 10.0);
        if (seed == 4)
            topo.embedding[9] = topo.embedding[200];
        topologies.push_back(topo);
    }
    for (const auto &embedding : std::vector<std::vector<Vec2>>{
             {}, {{1.0, 2.0}}, {{1.0, 2.0}, {nan, 2.0}},
             {{inf, 0.0}, {-inf, 0.0}, {3.0, 4.0}},
             {{nan, 0.0}, {0.0, 0.0}, {3.0, 4.0}, {inf, inf}}}) {
        Topology topo;
        topo.name = std::to_string(embedding.size()) + " hand-made points";
        topo.embedding = embedding;
        topologies.push_back(topo);
    }

    for (const Topology &topo : topologies) {
        const double swept = topo.minEmbeddingSpacing();
        const double all_pairs = oracle::minEmbeddingSpacing(topo);
        EXPECT_EQ(std::memcmp(&swept, &all_pairs, sizeof(double)), 0)
            << topo.name << ": " << swept << " vs " << all_pairs;
    }
}

} // namespace
} // namespace qplacer
