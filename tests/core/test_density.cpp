#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "core/density.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

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
    DensityModel model(nl, 32);
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
    DensityModel model(nl, 32);
    std::vector<Vec2> grad;
    model.evaluate(pos, grad);
    EXPECT_LT(model.overflow(), 0.05);
}

TEST(Density, GradientPushesApartStackedInstances)
{
    Netlist nl = blockNetlist(2, 400, 4000);
    DensityModel model(nl, 32);
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
    DensityModel model(nl, 32);
    std::vector<Vec2> grad;
    std::vector<Vec2> pos{{1000, 1000}};
    model.evaluate(pos, grad);
    EXPECT_NEAR(model.grid().total(), 800.0 * 800.0, 1.0);
}

/** memcmp equality of two gradients. */
bool
sameBits(const std::vector<Vec2> &a, const std::vector<Vec2> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(Vec2)) == 0;
}

TEST(Density, RepeatedEvaluationsAreStateless)
{
    // The stencils, density and field maps persist across evaluate()
    // calls; none of them may carry state into the next one. Evaluate
    // P, then Q, then P: both P results must be bit-equal, and Q must
    // match a fresh model. 300 instances engage the threaded paths.
    const int n = 300;
    Netlist nl = blockNetlist(n, 300, 8000);
    Rng rng(31);
    std::vector<Vec2> p(n);
    std::vector<Vec2> q(n);
    for (int i = 0; i < n; ++i) {
        p[i] = Vec2(rng.uniform(-400.0, 8400.0), rng.uniform(0.0, 8000.0));
        q[i] = Vec2(rng.uniform(0.0, 8000.0), rng.uniform(-400.0, 8400.0));
    }

    for (const int threads : {1, 4}) {
        std::unique_ptr<ThreadPool> pool;
        if (threads > 1)
            pool = std::make_unique<ThreadPool>(threads);
        DensityModel model(nl, 64, pool.get());
        std::vector<Vec2> grad;
        model.evaluate(p, grad);
        const std::vector<Vec2> first = grad;
        const double first_overflow = model.overflow();

        model.evaluate(q, grad);
        DensityModel fresh(nl, 64, pool.get());
        std::vector<Vec2> fresh_grad;
        fresh.evaluate(q, fresh_grad);
        EXPECT_TRUE(sameBits(grad, fresh_grad)) << threads << " threads";

        model.evaluate(p, grad);
        EXPECT_TRUE(sameBits(grad, first)) << threads << " threads";
        const double again_overflow = model.overflow();
        EXPECT_EQ(0, std::memcmp(&again_overflow, &first_overflow,
                                 sizeof(double)))
            << threads << " threads";
    }
}

} // namespace
} // namespace qplacer
