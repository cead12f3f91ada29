#include <gtest/gtest.h>

#include "freq/assigner.hpp"
#include "legal/tetris.hpp"
#include "netlist/builder.hpp"
#include "topology/generators.hpp"

namespace qplacer {
namespace {

Netlist
smallNetlist()
{
    const Topology topo = makeGrid(3, 3);
    const auto freqs = FrequencyAssigner().assign(topo);
    return NetlistBuilder().build(topo, freqs, 0.6);
}

TEST(Tetris, PlacesAllSegmentsWithoutOverlap)
{
    Netlist nl = smallNetlist();
    OccupancyGrid grid(nl.region(), 100);
    // Fix qubits on the grid first.
    for (int q = 0; q < nl.numQubits(); ++q) {
        Instance &inst = nl.instance(q);
        inst.pos = grid.snapCenter(inst.pos, inst.paddedWidth(),
                                   inst.paddedHeight());
        // Nudge until free (qubits may snap onto each other).
        while (!grid.canPlace(Rect::fromCenter(inst.pos,
                                               inst.paddedWidth(),
                                               inst.paddedHeight()))) {
            inst.pos.x += 800;
            inst.pos = grid.snapCenter(inst.pos, inst.paddedWidth(),
                                       inst.paddedHeight());
        }
        grid.occupy(Rect::fromCenter(inst.pos, inst.paddedWidth(),
                                     inst.paddedHeight()),
                    q);
    }

    double displacement = 0.0;
    ASSERT_TRUE(tetrisLegalizeSegments(nl, grid, /*resonance_check=*/true,
                                       CrosstalkRule(), displacement));
    EXPECT_GE(displacement, 0.0);

    // No padded overlaps among all instances.
    for (int i = 0; i < nl.numInstances(); ++i) {
        for (int j = i + 1; j < nl.numInstances(); ++j) {
            const Rect a = nl.instance(i).paddedRect();
            const Rect b = nl.instance(j).paddedRect();
            const Rect inter = a.intersect(b);
            EXPECT_FALSE(!inter.empty() && inter.width() > 1.0 &&
                         inter.height() > 1.0)
                << "instances " << i << " and " << j << " overlap";
        }
    }
}

TEST(Tetris, ChainsStayContiguous)
{
    Netlist nl = smallNetlist();
    OccupancyGrid grid(nl.region(), 100);
    for (int q = 0; q < nl.numQubits(); ++q) {
        Instance &inst = nl.instance(q);
        inst.pos = grid.snapCenter(inst.pos, inst.paddedWidth(),
                                   inst.paddedHeight());
        while (!grid.canPlace(Rect::fromCenter(inst.pos,
                                               inst.paddedWidth(),
                                               inst.paddedHeight()))) {
            inst.pos.x += 800;
            inst.pos = grid.snapCenter(inst.pos, inst.paddedWidth(),
                                       inst.paddedHeight());
        }
        grid.occupy(Rect::fromCenter(inst.pos, inst.paddedWidth(),
                                     inst.paddedHeight()),
                    q);
    }
    double displacement = 0.0;
    ASSERT_TRUE(tetrisLegalizeSegments(nl, grid, /*resonance_check=*/true,
                                       CrosstalkRule(), displacement));

    // Consecutive chain segments end up near each other (the anchor
    // policy): median consecutive distance is a small number of blocks.
    for (const Resonator &res : nl.resonators()) {
        int close = 0;
        int total = 0;
        for (std::size_t s = 0; s + 1 < res.segments.size(); ++s) {
            const Vec2 a = nl.instance(res.segments[s]).pos;
            const Vec2 b = nl.instance(res.segments[s + 1]).pos;
            close += a.dist(b) <= 900.0;
            ++total;
        }
        if (total > 0) {
            EXPECT_GT(close * 2, total) << "resonator " << res.id;
        }
    }
}

TEST(Tetris, FailsGracefullyWhenRegionTooSmall)
{
    Netlist nl = smallNetlist();
    nl.setRegion(Rect(0, 0, 3000, 3000)); // far too small
    nl.clampIntoRegion();
    OccupancyGrid grid(nl.region(), 100);
    double displacement = 0.0;
    EXPECT_FALSE(tetrisLegalizeSegments(nl, grid, /*resonance_check=*/true,
                                        CrosstalkRule(), displacement));
}

} // namespace
} // namespace qplacer
