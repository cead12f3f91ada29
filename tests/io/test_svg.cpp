#include <gtest/gtest.h>

#include <fstream>

#include "freq/assigner.hpp"
#include "io/svg.hpp"
#include "netlist/builder.hpp"
#include "scratch_path.hpp"
#include "topology/generators.hpp"

namespace qplacer {
namespace {

Netlist
smallLayout()
{
    const Topology topo = makeGrid(2, 2);
    const auto freqs = FrequencyAssigner().assign(topo);
    return NetlistBuilder().build(topo, freqs);
}

TEST(Svg, DocumentIsWellFormedish)
{
    const std::string svg = layoutSvg(smallLayout());
    EXPECT_EQ(svg.rfind("<svg", 0), 0u);
    EXPECT_NE(svg.find("</svg>"), std::string::npos);
    // One rect per instance (plus padding outlines and background).
    const Netlist nl = smallLayout();
    std::size_t rects = 0;
    for (std::size_t pos = svg.find("<rect"); pos != std::string::npos;
         pos = svg.find("<rect", pos + 1)) {
        ++rects;
    }
    EXPECT_GE(rects, static_cast<std::size_t>(nl.numInstances()));
}

TEST(Svg, MeanderPolylinesPerResonator)
{
    const Netlist nl = smallLayout();
    const std::string svg = layoutSvg(nl);
    std::size_t polylines = 0;
    for (std::size_t pos = svg.find("<polyline");
         pos != std::string::npos; pos = svg.find("<polyline", pos + 1)) {
        ++polylines;
    }
    EXPECT_EQ(polylines, nl.resonators().size());
}

TEST(Svg, OptionsToggleFeatures)
{
    const Netlist nl = smallLayout();
    SvgOptions opts;
    opts.drawMeander = false;
    opts.drawLabels = false;
    const std::string svg = layoutSvg(nl, opts);
    EXPECT_EQ(svg.find("<polyline"), std::string::npos);
    EXPECT_EQ(svg.find("<text"), std::string::npos);
}

TEST(Svg, WritesFile)
{
    const ScratchPath file(".svg");
    const std::string &path = file.path;
    writeLayoutSvg(smallLayout(), path);
    std::ifstream in(path);
    EXPECT_TRUE(in.good());
    std::string first;
    std::getline(in, first);
    EXPECT_EQ(first.rfind("<svg", 0), 0u);
}

TEST(Svg, UnwritablePathIsFatal)
{
    EXPECT_THROW(
        writeLayoutSvg(smallLayout(), "/nonexistent_dir_xyz/x.svg"),
        std::runtime_error);
}

} // namespace
} // namespace qplacer
