#include <gtest/gtest.h>

#include <fstream>

#include "freq/assigner.hpp"
#include "io/layout_io.hpp"
#include "netlist/builder.hpp"
#include "scratch_path.hpp"
#include "topology/generators.hpp"

namespace qplacer {
namespace {

class LayoutIoTest : public ::testing::Test
{
  protected:
    Netlist
    build()
    {
        const Topology topo = makeGrid(2, 3);
        const auto freqs = FrequencyAssigner().assign(topo);
        return NetlistBuilder().build(topo, freqs);
    }

    ScratchPath file_{".txt"};
    const std::string &path_ = file_.path;
};

TEST_F(LayoutIoTest, RoundTripsPositions)
{
    Netlist original = build();
    // Scramble positions to non-trivial values.
    for (int i = 0; i < original.numInstances(); ++i)
        original.instance(i).pos = Vec2(13.5 * i + 1, 7.25 * i + 2);
    saveLayout(original, path_);

    Netlist restored = build();
    loadLayout(restored, path_);
    for (int i = 0; i < original.numInstances(); ++i) {
        EXPECT_DOUBLE_EQ(restored.instance(i).pos.x,
                         original.instance(i).pos.x);
        EXPECT_DOUBLE_EQ(restored.instance(i).pos.y,
                         original.instance(i).pos.y);
    }
    EXPECT_NEAR(restored.region().area(), original.region().area(),
                1e-3 * original.region().area());
}

TEST_F(LayoutIoTest, MismatchedNetlistIsFatal)
{
    const Netlist original = build();
    saveLayout(original, path_);

    const Topology other = makeGrid(3, 3);
    const auto freqs = FrequencyAssigner().assign(other);
    Netlist wrong = NetlistBuilder().build(other, freqs);
    EXPECT_THROW(loadLayout(wrong, path_), std::runtime_error);
}

TEST_F(LayoutIoTest, MissingFileIsFatal)
{
    Netlist nl = build();
    EXPECT_THROW(loadLayout(nl, path_), std::runtime_error);
}

TEST_F(LayoutIoTest, MalformedHeaderIsFatal)
{
    {
        std::ofstream out(path_);
        out << "bogus 1 2 3\n";
    }
    Netlist nl = build();
    EXPECT_THROW(loadLayout(nl, path_), std::runtime_error);
}

} // namespace
} // namespace qplacer
