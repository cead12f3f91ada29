#include <gtest/gtest.h>

#include "core/density.hpp"
#include "util/rng.hpp"

namespace qplacer {
namespace {

Netlist
blockNetlist(int n, double size, double region_side)
{
    Netlist nl;
    for (int i = 0; i < n; ++i) {
        Instance q;
        q.kind = InstanceKind::Qubit;
        q.width = q.height = size;
        q.pad = 0.0;
        nl.addInstance(q);
    }
    nl.setRegion(Rect(0, 0, region_side, region_side));
    return nl;
}

TEST(Density, OverflowHighWhenStacked)
{
    Netlist nl = blockNetlist(16, 400, 8000);
    std::vector<Vec2> pos(16, Vec2(4000, 4000)); // all stacked
    DensityModel model(nl, 32, 0.9);
    std::vector<Vec2> grad;
    model.evaluate(pos, grad);
    EXPECT_GT(model.overflow(), 0.5);
}

TEST(Density, OverflowLowWhenSpread)
{
    Netlist nl = blockNetlist(16, 400, 8000);
    std::vector<Vec2> pos;
    for (int i = 0; i < 16; ++i) {
        pos.emplace_back(1000.0 + (i % 4) * 2000.0,
                         1000.0 + (i / 4) * 2000.0);
    }
    DensityModel model(nl, 32, 0.9);
    std::vector<Vec2> grad;
    model.evaluate(pos, grad);
    EXPECT_LT(model.overflow(), 0.05);
}

TEST(Density, GradientPushesApartStackedInstances)
{
    Netlist nl = blockNetlist(2, 400, 4000);
    DensityModel model(nl, 32, 0.9);
    // Two instances slightly offset: the gradient should separate them.
    std::vector<Vec2> pos{{1900, 2000}, {2100, 2000}};
    std::vector<Vec2> grad;
    model.evaluate(pos, grad);
    // Descending the gradient moves the left instance further left.
    EXPECT_GT(grad[0].x, 0.0);
    EXPECT_LT(grad[1].x, 0.0);
}

TEST(Density, AutoBinCountIsPowerOfTwoInRange)
{
    EXPECT_EQ(DensityModel::autoBinCount(10), 32);
    EXPECT_EQ(DensityModel::autoBinCount(1500), 64);
    EXPECT_EQ(DensityModel::autoBinCount(5000), 128);
    EXPECT_EQ(DensityModel::autoBinCount(1000000), 256);
}

TEST(Density, ChargeEqualsPaddedArea)
{
    Netlist nl = blockNetlist(1, 400, 2000);
    nl.instances()[0].pad = 400; // padded -> 800x800
    DensityModel model(nl, 32, 0.9);
    std::vector<Vec2> grad;
    std::vector<Vec2> pos{{1000, 1000}};
    model.evaluate(pos, grad);
    EXPECT_NEAR(model.grid().total(), 800.0 * 800.0, 1.0);
}

TEST(Density, InvalidTargetIsFatal)
{
    Netlist nl = blockNetlist(1, 400, 2000);
    EXPECT_THROW(DensityModel(nl, 32, 0.0), std::runtime_error);
    EXPECT_THROW(DensityModel(nl, 32, 1.5), std::runtime_error);
}

} // namespace
} // namespace qplacer
