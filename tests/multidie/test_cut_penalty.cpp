/**
 * @file
 * CutPenaltyModel: no gradient on same-side nets, a pull toward the cut
 * on crossings, and an analytic gradient that matches central finite
 * differences of the closed-form penalty (tests/oracles).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "multidie/cut_penalty.hpp"
#include "multidie/die_plan.hpp"
#include "netlist/netlist.hpp"
#include "oracles/oracles.hpp"

namespace qplacer {
namespace {

/** Four qubits in a 1x2 (one vertical cut) device. */
struct Fixture
{
    Netlist netlist;
    DiePlan plan;

    Fixture()
    {
        const Rect region(0.0, 0.0, 2200.0, 1000.0);
        netlist.setRegion(region);
        for (int q = 0; q < 4; ++q) {
            Instance inst;
            inst.kind = InstanceKind::Qubit;
            inst.qubit = q;
            inst.width = 50.0;
            inst.height = 50.0;
            inst.pad = 10.0;
            netlist.addInstance(inst);
        }
        netlist.addNet(0, 1, 1.0);
        netlist.addNet(2, 3, 2.5);

        DieSpec spec;
        spec.rows = 1;
        spec.cols = 2;
        spec.cutGapUm = 200.0; // Vertical cut at x = 1100.
        plan = DiePlan::resolve(spec, region);
    }
};

TEST(CutPenalty, ZeroWhenAllNetsOnOneSide)
{
    Fixture fx;
    const CutPenaltyModel model(fx.netlist, fx.plan);
    const std::vector<Vec2> positions = {
        Vec2(100.0, 200.0), Vec2(900.0, 800.0), // Net 0: both left.
        Vec2(1300.0, 300.0), Vec2(2100.0, 700.0), // Net 1: both right.
    };
    std::vector<Vec2> gradient;
    model.evaluate(positions, gradient);
    ASSERT_EQ(gradient.size(), positions.size());
    for (const Vec2 &g : gradient) {
        EXPECT_DOUBLE_EQ(g.x, 0.0);
        EXPECT_DOUBLE_EQ(g.y, 0.0);
    }
}

TEST(CutPenalty, CrossingNetPaysAndWeightScales)
{
    Fixture fx;
    const CutPenaltyModel model(fx.netlist, fx.plan);
    std::vector<Vec2> gradient;

    // Net 0 straddles the cut symmetrically; net 1 stays on one side.
    const std::vector<Vec2> one = {
        Vec2(1000.0, 500.0), Vec2(1200.0, 500.0),
        Vec2(100.0, 100.0),  Vec2(200.0, 200.0),
    };
    model.evaluate(one, gradient);
    // Expected: d(w * (c - a)(b - c) / W)/da = -w * (b - c) / W, and
    // +w * (c - a) / W for b, with w = 1 and both depths 100.
    const double pull = 100.0 / 2200.0;
    EXPECT_NEAR(gradient[0].x, -pull, 1e-15);
    EXPECT_NEAR(gradient[1].x, pull, 1e-15);
    EXPECT_DOUBLE_EQ(gradient[2].x, 0.0);
    EXPECT_DOUBLE_EQ(gradient[3].x, 0.0);

    // Same straddle on net 1 (weight 2.5) costs 2.5x as much.
    const std::vector<Vec2> two = {
        Vec2(100.0, 100.0),  Vec2(200.0, 200.0),
        Vec2(1000.0, 500.0), Vec2(1200.0, 500.0),
    };
    model.evaluate(two, gradient);
    EXPECT_NEAR(gradient[2].x, -2.5 * pull, 1e-15);
    EXPECT_NEAR(gradient[3].x, 2.5 * pull, 1e-15);
    EXPECT_DOUBLE_EQ(gradient[0].x, 0.0);
}

TEST(CutPenalty, GradientMatchesFiniteDifferences)
{
    Fixture fx;
    const CutPenaltyModel model(fx.netlist, fx.plan);

    // Both nets straddle the cut, at different depths, away from the
    // hinge kinks at x = 1100 so central differences are exact.
    std::vector<Vec2> positions = {
        Vec2(950.0, 420.0),  Vec2(1310.0, 610.0),
        Vec2(1040.0, 150.0), Vec2(1490.0, 880.0),
    };
    std::vector<Vec2> analytic;
    model.evaluate(positions, analytic);
    ASSERT_EQ(analytic.size(), positions.size());

    const double h = 1e-3;
    for (std::size_t i = 0; i < positions.size(); ++i) {
        for (int axis = 0; axis < 2; ++axis) {
            double &coord = axis == 0 ? positions[i].x : positions[i].y;
            const double saved = coord;
            coord = saved + h;
            const double up =
                oracle::cutPenalty(fx.netlist, fx.plan, positions);
            coord = saved - h;
            const double down =
                oracle::cutPenalty(fx.netlist, fx.plan, positions);
            coord = saved;
            const double numeric = (up - down) / (2.0 * h);
            const double exact =
                axis == 0 ? analytic[i].x : analytic[i].y;
            EXPECT_NEAR(exact, numeric, 1e-7)
                << "instance " << i << " axis " << axis;
        }
    }
}

TEST(CutPenalty, GradientPullsEndpointsTowardCut)
{
    Fixture fx;
    const CutPenaltyModel model(fx.netlist, fx.plan);
    const std::vector<Vec2> positions = {
        Vec2(900.0, 500.0), Vec2(1400.0, 500.0), // Straddles x = 1100.
        Vec2(100.0, 100.0), Vec2(200.0, 200.0),
    };
    std::vector<Vec2> gradient;
    model.evaluate(positions, gradient);
    // Descent (-gradient) moves the left endpoint right and the right
    // endpoint left -- both toward the cut.
    EXPECT_LT(gradient[0].x, 0.0);
    EXPECT_GT(gradient[1].x, 0.0);
    EXPECT_DOUBLE_EQ(gradient[0].y, 0.0);
    EXPECT_DOUBLE_EQ(gradient[2].x, 0.0);
}

TEST(CutPenalty, HorizontalCutUsesYAxis)
{
    Netlist netlist;
    const Rect region(0.0, 0.0, 1000.0, 2200.0);
    netlist.setRegion(region);
    for (int q = 0; q < 2; ++q) {
        Instance inst;
        inst.kind = InstanceKind::Qubit;
        inst.qubit = q;
        inst.width = 50.0;
        inst.height = 50.0;
        netlist.addInstance(inst);
    }
    netlist.addNet(0, 1);

    DieSpec spec;
    spec.rows = 2;
    spec.cols = 1;
    spec.cutGapUm = 200.0; // Horizontal cut at y = 1100.
    const DiePlan plan = DiePlan::resolve(spec, region);
    const CutPenaltyModel model(netlist, plan);

    const std::vector<Vec2> positions = {Vec2(500.0, 1000.0),
                                         Vec2(500.0, 1200.0)};
    std::vector<Vec2> gradient;
    model.evaluate(positions, gradient);
    EXPECT_NEAR(gradient[0].y, -100.0 / 2200.0, 1e-15);
    EXPECT_NEAR(gradient[1].y, 100.0 / 2200.0, 1e-15);
    EXPECT_DOUBLE_EQ(gradient[0].x, 0.0);
}

} // namespace
} // namespace qplacer
