#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/wirelength.hpp"
#include "oracles/oracles.hpp"
#include "util/rng.hpp"

namespace qplacer {
namespace {

Netlist
twoPinNetlist(int n, int nets, std::uint64_t seed)
{
    Rng rng(seed);
    Netlist nl;
    for (int i = 0; i < n; ++i) {
        Instance q;
        q.kind = InstanceKind::Qubit;
        q.width = 400;
        q.height = 400;
        q.pad = 400;
        nl.addInstance(q);
    }
    for (int e = 0; e < nets; ++e) {
        const int a = static_cast<int>(rng.below(n));
        int b = static_cast<int>(rng.below(n));
        while (b == a)
            b = static_cast<int>(rng.below(n));
        nl.addNet(a, b, rng.uniform(0.5, 2.0));
    }
    nl.setRegion(Rect(0, 0, 10000, 10000));
    return nl;
}

std::vector<Vec2>
randomPositions(int n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Vec2> pos(n);
    for (auto &p : pos)
        p = Vec2(rng.uniform(0, 10000), rng.uniform(0, 10000));
    return pos;
}

/** HPWL subgradient: per net, +-w * sign(d) on each endpoint. */
std::vector<Vec2>
hpwlSubgradient(const Netlist &nl, const std::vector<Vec2> &pos)
{
    const auto sign = [](double d) { return d > 0.0 ? 1.0 : -1.0; };
    std::vector<Vec2> g(pos.size());
    for (const Net &net : nl.nets()) {
        const Vec2 d = pos[net.a] - pos[net.b];
        const Vec2 step(net.weight * sign(d.x), net.weight * sign(d.y));
        g[net.a] += step;
        g[net.b] -= step;
    }
    return g;
}

TEST(Wirelength, ApproachesHpwlAsGammaShrinks)
{
    // Pins at least 900 um apart on each axis, so at gamma = 1 every
    // |d| >> gamma and tanh(d / (2 gamma)) is sign(d) to the last bit:
    // the gradient is the HPWL subgradient. At gamma = 500 it is not.
    const Netlist nl = twoPinNetlist(10, 15, 1);
    std::vector<Vec2> pos(10);
    for (int i = 0; i < 10; ++i)
        pos[i] = Vec2(500.0 + 900.0 * i, 500.0 + 900.0 * ((7 * i) % 10));
    const std::vector<Vec2> sub = hpwlSubgradient(nl, pos);

    const auto max_gap = [&](double gamma) {
        WirelengthModel model(nl, gamma);
        std::vector<Vec2> grad;
        model.evaluate(pos, grad);
        double gap = 0.0;
        for (std::size_t i = 0; i < pos.size(); ++i)
            gap = std::max({gap, std::abs(grad[i].x - sub[i].x),
                            std::abs(grad[i].y - sub[i].y)});
        return gap;
    };
    EXPECT_NEAR(max_gap(1.0), 0.0, 1e-12);
    EXPECT_GT(max_gap(500.0), 1e-3);
}

TEST(Wirelength, GradientMatchesFiniteDifference)
{
    const Netlist nl = twoPinNetlist(8, 12, 3);
    const double gamma = 200.0;
    WirelengthModel model(nl, gamma);
    auto pos = randomPositions(8, 4);
    std::vector<Vec2> grad;
    model.evaluate(pos, grad);

    const double h = 1e-4;
    for (int i = 0; i < 8; ++i) {
        auto plus = pos;
        auto minus = pos;
        plus[i].x += h;
        minus[i].x -= h;
        const double fd = (oracle::smoothWirelength(nl, gamma, plus) -
                           oracle::smoothWirelength(nl, gamma, minus)) /
                          (2 * h);
        EXPECT_NEAR(grad[i].x, fd, 1e-5 * (1 + std::abs(fd)))
            << "instance " << i;

        plus = pos;
        minus = pos;
        plus[i].y += h;
        minus[i].y -= h;
        const double fdy = (oracle::smoothWirelength(nl, gamma, plus) -
                            oracle::smoothWirelength(nl, gamma, minus)) /
                           (2 * h);
        EXPECT_NEAR(grad[i].y, fdy, 1e-5 * (1 + std::abs(fdy)));
    }
}

TEST(Wirelength, GradientIsZeroSum)
{
    // Wirelength is translation invariant, so gradients sum to zero.
    const Netlist nl = twoPinNetlist(12, 20, 5);
    WirelengthModel model(nl, 150.0);
    const auto pos = randomPositions(12, 6);
    std::vector<Vec2> grad;
    model.evaluate(pos, grad);
    Vec2 sum;
    for (const Vec2 &g : grad)
        sum += g;
    EXPECT_NEAR(sum.x, 0.0, 1e-9);
    EXPECT_NEAR(sum.y, 0.0, 1e-9);
}

TEST(Wirelength, CoincidentPinsGiveSmoothMinimum)
{
    Netlist nl = twoPinNetlist(2, 0, 7);
    nl.addNet(0, 1);
    WirelengthModel model(nl, 100.0);
    std::vector<Vec2> pos{{500, 500}, {500, 500}};
    std::vector<Vec2> grad;
    model.evaluate(pos, grad);
    // The smooth model has a stationary point where HPWL has its kink.
    for (const Vec2 &g : grad) {
        EXPECT_NEAR(g.x, 0.0, 1e-12);
        EXPECT_NEAR(g.y, 0.0, 1e-12);
    }
    EXPECT_DOUBLE_EQ(nl.hpwl(pos), 0.0);
}

TEST(Wirelength, WeightsScaleContribution)
{
    Netlist nl;
    for (int i = 0; i < 2; ++i) {
        Instance q;
        q.kind = InstanceKind::Qubit;
        q.width = q.height = 400;
        nl.addInstance(q);
    }
    nl.addNet(0, 1, 3.0);
    nl.setRegion(Rect(0, 0, 1000, 1000));
    WirelengthModel model(nl, 10.0);
    const std::vector<Vec2> pos{{0, 0}, {500, 0}};
    EXPECT_NEAR(nl.hpwl(pos), 1500.0, 1e-9);
}

TEST(Wirelength, InvalidGammaIsFatal)
{
    const Netlist nl = twoPinNetlist(2, 1, 8);
    EXPECT_THROW(WirelengthModel(nl, 0.0), std::runtime_error);
    WirelengthModel model(nl, 1.0);
    EXPECT_THROW(model.setGamma(-1.0), std::runtime_error);
}

} // namespace
} // namespace qplacer
