#include <gtest/gtest.h>

#include "freq/assigner.hpp"
#include "netlist/builder.hpp"
#include "topology/factory.hpp"

namespace qplacer {
namespace {

Netlist
buildFor(const std::string &topo_name, double lb = 300.0)
{
    const Topology topo = makeTopology(topo_name);
    const auto freqs = FrequencyAssigner().assign(topo);
    PartitionParams p;
    p.segmentUm = lb;
    return NetlistBuilder(p).build(topo, freqs);
}

TEST(Builder, QubitInstancesMatchTopology)
{
    const Netlist nl = buildFor("Falcon");
    EXPECT_EQ(nl.numQubits(), 27);
    for (int q = 0; q < 27; ++q) {
        EXPECT_EQ(nl.instance(q).kind, InstanceKind::Qubit);
        EXPECT_EQ(nl.instance(q).qubit, q);
        EXPECT_DOUBLE_EQ(nl.instance(q).width, kQubitSizeUm);
        EXPECT_DOUBLE_EQ(nl.instance(q).pad, kQubitPadUm);
    }
}

TEST(Builder, OneResonatorPerCoupler)
{
    const Netlist nl = buildFor("Falcon");
    EXPECT_EQ(nl.resonators().size(), 28u);
    for (const Resonator &res : nl.resonators()) {
        EXPECT_GE(res.segments.size(), 1u);
        EXPECT_GT(res.lengthUm, 9000.0);
        EXPECT_LT(res.lengthUm, 11000.0);
    }
}

struct CellSpec
{
    const char *name;
    double lb;
    int paper_cells;
};

// Prints e.g. "Aspen_11_lb300". Without it gtest prints the raw bytes
// of `name`'s pointer, so the discovered CTest names change with ASLR.
void
PrintTo(const CellSpec &spec, std::ostream *os)
{
    std::string n = spec.name;
    for (char &c : n)
        if (c == '-')
            c = '_';
    *os << n << "_lb" << static_cast<int>(spec.lb);
}

class TableIICells : public ::testing::TestWithParam<CellSpec>
{
};

TEST_P(TableIICells, CellCountNearPaper)
{
    // Table II reports #cells per (topology, l_b); our counts should be
    // within 6% (resonator frequencies differ slightly from theirs).
    const CellSpec spec = GetParam();
    const Netlist nl = buildFor(spec.name, spec.lb);
    const double rel =
        std::abs(nl.numInstances() - spec.paper_cells) /
        static_cast<double>(spec.paper_cells);
    EXPECT_LT(rel, 0.06) << spec.name << " lb=" << spec.lb << " got "
                         << nl.numInstances() << " want ~"
                         << spec.paper_cells;
}

INSTANTIATE_TEST_SUITE_P(
    TableII, TableIICells,
    ::testing::Values(CellSpec{"Grid", 200, 1050},
                      CellSpec{"Grid", 300, 490},
                      CellSpec{"Grid", 400, 299},
                      CellSpec{"Xtree", 300, 660},
                      CellSpec{"Falcon", 200, 744},
                      CellSpec{"Falcon", 300, 354},
                      CellSpec{"Falcon", 400, 218},
                      CellSpec{"Eagle", 300, 1801},
                      CellSpec{"Aspen-11", 300, 598},
                      CellSpec{"Aspen-M", 300, 1310}));

TEST(Builder, NetsChainSegmentsBetweenQubits)
{
    const Netlist nl = buildFor("Grid");
    // Every resonator with k segments contributes k+1 nets.
    std::size_t expected = 0;
    for (const Resonator &res : nl.resonators())
        expected += res.segments.size() + 1;
    EXPECT_EQ(nl.nets().size(), expected);
}

TEST(Builder, WarmStartInsideRegion)
{
    const Netlist nl = buildFor("Aspen-11");
    for (const Instance &inst : nl.instances()) {
        EXPECT_TRUE(
            nl.region().inflated(1.0).containsRect(inst.paddedRect()))
            << "instance " << inst.id;
    }
}

TEST(Builder, SegmentsInheritResonatorFrequency)
{
    const Netlist nl = buildFor("Grid");
    for (const Resonator &res : nl.resonators()) {
        for (int seg : res.segments)
            EXPECT_DOUBLE_EQ(nl.instance(seg).freqHz, res.freqHz);
    }
}

TEST(Builder, MismatchedAssignmentIsFatal)
{
    const Topology grid = makeTopology("Grid");
    const Topology falcon = makeTopology("Falcon");
    const auto freqs = FrequencyAssigner().assign(falcon);
    EXPECT_THROW(NetlistBuilder().build(grid, freqs),
                 std::runtime_error);
}

} // namespace
} // namespace qplacer
