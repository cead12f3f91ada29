#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "topology/factory.hpp"
#include "topology/generators.hpp"

namespace qplacer {
namespace {

struct TopoSpec
{
    const char *name;
    int qubits;
    int couplers;
};

// Prints e.g. "Aspen_11". Without it gtest prints the raw bytes of
// `name`'s pointer, so the discovered CTest names change with ASLR.
void
PrintTo(const TopoSpec &spec, std::ostream *os)
{
    std::string n = spec.name;
    for (char &c : n)
        if (c == '-')
            c = '_';
    *os << n;
}

// Table I qubit counts; coupler counts are the ones implied by the
// paper's Table II cell counts (Table I lists qubits only).
class PaperTopologies : public ::testing::TestWithParam<TopoSpec>
{
};

TEST_P(PaperTopologies, MatchesPaperInventory)
{
    const TopoSpec spec = GetParam();
    const Topology topo = makeTopology(spec.name);
    EXPECT_EQ(topo.numQubits(), spec.qubits) << spec.name;
    EXPECT_EQ(topo.numCouplers(), spec.couplers) << spec.name;
    EXPECT_TRUE(topo.coupling.isConnected()) << spec.name;
    EXPECT_EQ(topo.embedding.size(),
              static_cast<std::size_t>(spec.qubits));
}

INSTANTIATE_TEST_SUITE_P(
    TableI, PaperTopologies,
    ::testing::Values(TopoSpec{"Grid", 25, 40},
                      TopoSpec{"Xtree", 53, 52},
                      TopoSpec{"Falcon", 27, 28},
                      TopoSpec{"Eagle", 127, 144},
                      TopoSpec{"Aspen-11", 40, 48},
                      TopoSpec{"Aspen-M", 80, 106}));

TEST(Topologies, GridStructure)
{
    const Topology g = makeGrid(3, 4);
    EXPECT_EQ(g.numQubits(), 12);
    EXPECT_EQ(g.numCouplers(), 2 * 12 - 3 - 4); // 17
    EXPECT_EQ(g.coupling.maxDegree(), 4);
    // Corner qubits have degree 2.
    EXPECT_EQ(g.coupling.degree(0), 2);
}

TEST(Topologies, FalconDegreesAreHeavyHex)
{
    const Topology f = makeFalcon();
    EXPECT_LE(f.coupling.maxDegree(), 3); // heavy-hex property
    int pendants = 0;
    for (int q = 0; q < f.numQubits(); ++q)
        pendants += f.coupling.degree(q) == 1;
    EXPECT_EQ(pendants, 6); // the six stub qubits of the Falcon map
}

TEST(Topologies, EagleDegreesAreHeavyHex)
{
    const Topology e = makeEagle();
    EXPECT_LE(e.coupling.maxDegree(), 3);
}

TEST(Topologies, EagleEmbeddingMatchesAdjacency)
{
    // Every coupled pair sits at unit grid distance in the embedding.
    const Topology e = makeEagle();
    for (const auto &[u, v] : e.coupling.edges()) {
        const double d = e.embedding[u].dist(e.embedding[v]);
        EXPECT_NEAR(d, 1.0, 1e-9);
    }
}

TEST(Topologies, FalconEmbeddingMatchesAdjacency)
{
    const Topology f = makeFalcon();
    for (const auto &[u, v] : f.coupling.edges()) {
        const double d = f.embedding[u].dist(f.embedding[v]);
        EXPECT_NEAR(d, 1.0, 1e-9);
    }
}

TEST(Topologies, OctagonRingDegrees)
{
    const Topology a = makeAspen11();
    // Every qubit has degree 2 (ring) plus at most 1 inter-ring link.
    for (int q = 0; q < a.numQubits(); ++q) {
        EXPECT_GE(a.coupling.degree(q), 2);
        EXPECT_LE(a.coupling.degree(q), 3);
    }
}

TEST(Topologies, XtreeIsATree)
{
    const Topology x = makeXtree();
    EXPECT_EQ(x.numCouplers(), x.numQubits() - 1);
    EXPECT_TRUE(x.coupling.isConnected());
}

TEST(Topologies, UnknownNameIsFatal)
{
    EXPECT_THROW(makeTopology("NotADevice"), std::runtime_error);
}

TEST(Topologies, PaperListHasSixEntries)
{
    EXPECT_EQ(paperTopologyNames().size(), 6u);
}

TEST(Topologies, MinEmbeddingSpacingPositive)
{
    for (const auto &name : paperTopologyNames()) {
        const Topology t = makeTopology(name);
        EXPECT_GT(t.minEmbeddingSpacing(), 0.0) << name;
    }
}

/** A path graph on @p embedding.size() qubits at @p embedding. */
Topology
pathAt(const std::vector<Vec2> &embedding)
{
    Topology topo;
    topo.name = "path";
    topo.coupling = Graph(static_cast<int>(embedding.size()));
    for (int i = 0; i + 1 < topo.coupling.numNodes(); ++i)
        topo.coupling.addEdge(i, i + 1);
    topo.embedding = embedding;
    return topo;
}

TEST(Topology, ValidateRejectsCoincidentQubits)
{
    // Qubits 0 and 3 coincide; the qubits between them share their x,
    // so the sweep must look past pairs that differ only in y.
    try {
        pathAt({{0, 0}, {0, 1}, {0, 2}, {0, 0}, {5, 5}, {5, 5}}).validate();
        FAIL() << "coincident qubits passed validate()";
    } catch (const std::logic_error &e) {
        EXPECT_NE(std::string(e.what()).find("qubits 0 and 3 share"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(pathAt({{1, 1}, {2, 1}, {1 + 5e-10, 1}}).validate(),
                 std::logic_error);

    // Distinct positions, however close, pass; so do non-finite ones,
    // which no distance test can call coincident.
    EXPECT_NO_THROW(pathAt({{0, 0}, {2e-9, 0}, {0, 2e-9}}).validate());
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_NO_THROW(
        pathAt({{nan, 0}, {nan, 0}, {inf, 1}, {inf, 1}, {0, 0}}).validate());
}

TEST(Topologies, SpecDimensionsAreBounded)
{
    Topology topo;
    std::string error;
    const std::string over = std::to_string(kMaxSpecDim + 1);
    for (const std::string &spec :
         {"grid1x" + over, "grid" + over + "x1", "heavyhex2x" + over,
          "octagon" + over + "x1", "grid1x" + over + "@dies=1x1"}) {
        error.clear();
        EXPECT_FALSE(resolveTopologySpec(spec, topo, &error)) << spec;
        EXPECT_NE(error.find("bad topology spec"), std::string::npos)
            << spec << ": " << error;
    }
    const std::string at = std::to_string(kMaxSpecDim);
    EXPECT_TRUE(resolveTopologySpec("grid1x" + at, topo, &error)) << error;
    EXPECT_EQ(topo.numQubits(), kMaxSpecDim);
}

} // namespace
} // namespace qplacer
