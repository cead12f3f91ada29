#include <gtest/gtest.h>

#include <cmath>

#include "core/freq_force.hpp"
#include "oracles/oracles.hpp"

namespace qplacer {
namespace {

Netlist
freqNetlist(const std::vector<double> &freqs,
            const std::vector<int> &groups)
{
    Netlist nl;
    int qubits = 0;
    for (std::size_t i = 0; i < freqs.size(); ++i) {
        Instance inst;
        if (groups[i] < 0) {
            inst.kind = InstanceKind::Qubit;
            inst.width = inst.height = 400;
            inst.pad = 400;
            ++qubits;
        } else {
            inst.kind = InstanceKind::ResonatorSegment;
            inst.resonator = groups[i];
            inst.segment = 0;
            inst.width = inst.height = 300;
            inst.pad = 100;
        }
        inst.freqHz = freqs[i];
        if (groups[i] >= 0 && qubits == 0) {
            // netlist requires qubits first; tests below always pass
            // qubit groups first, so this branch is unused.
        }
        nl.addInstance(inst);
    }
    nl.setRegion(Rect(0, 0, 20000, 20000));
    return nl;
}

/** True if instance @p i feels any force. */
bool
pushed(const std::vector<Vec2> &grad, std::size_t i)
{
    return grad[i].x != 0.0 || grad[i].y != 0.0;
}

/** True if some gradient component is non-zero. */
bool
anyForce(const std::vector<Vec2> &grad)
{
    for (std::size_t i = 0; i < grad.size(); ++i) {
        if (pushed(grad, i))
            return true;
    }
    return false;
}

TEST(FreqForce, ResonantPairsRepel)
{
    const Netlist nl =
        freqNetlist({5.0e9, 5.0e9}, {-1, -1});
    const FreqForceModel model(nl, 0.1e9, 0.75);
    std::vector<Vec2> pos{{1000, 1000}, {1500, 1000}};
    std::vector<Vec2> grad;
    model.evaluate(pos, grad);
    // Descending the gradient pushes them apart along x.
    EXPECT_GT(grad[0].x, 0.0);
    EXPECT_LT(grad[1].x, 0.0);
    EXPECT_NEAR(grad[0].y, 0.0, 1e-12);
}

TEST(FreqForce, DetunedPairsIgnoreEachOther)
{
    const Netlist nl = freqNetlist({5.0e9, 5.2e9}, {-1, -1});
    const FreqForceModel model(nl, 0.1e9, 0.75);
    std::vector<Vec2> pos{{1000, 1000}, {1200, 1000}};
    std::vector<Vec2> grad;
    model.evaluate(pos, grad);
    EXPECT_FALSE(anyForce(grad));
}

TEST(FreqForce, TruncatedBeyondCutoff)
{
    const Netlist nl = freqNetlist({5.0e9, 5.0e9}, {-1, -1});
    const FreqForceModel model(nl, 0.1e9, 0.8);
    // charge = 800 each -> cutoff radius 0.8 * 1600 = 1280 um.
    std::vector<Vec2> far{{1000, 1000}, {3000, 1000}};
    std::vector<Vec2> grad;
    model.evaluate(far, grad);
    EXPECT_FALSE(anyForce(grad));

    std::vector<Vec2> near{{1000, 1000}, {2000, 1000}};
    model.evaluate(near, grad);
    EXPECT_TRUE(anyForce(grad));
}

TEST(FreqForce, PotentialContinuousAtCutoff)
{
    const Netlist nl = freqNetlist({5.0e9, 5.0e9}, {-1, -1});
    // The production model forms only the gradient; the potential it
    // descends is the pair-list oracle's, whose gradient it reproduces.
    const FreqForceModel model(nl, 0.1e9, 0.8);
    const oracle::PairListFreqForce potential(nl, 0.1e9, 0.8);
    std::vector<Vec2> pos{{0, 0}, {1279.9, 0}};
    std::vector<Vec2> grad;
    std::vector<Vec2> oracle_grad;
    model.evaluate(pos, grad);
    const double just_inside = potential.evaluate(pos, oracle_grad);
    EXPECT_TRUE(anyForce(grad));
    EXPECT_EQ(grad[0].x, oracle_grad[0].x);
    EXPECT_EQ(grad[1].x, oracle_grad[1].x);
    EXPECT_NEAR(just_inside, 0.0, 1.0); // ~0 at the boundary
}

TEST(FreqForce, GradientMatchesFiniteDifference)
{
    const Netlist nl =
        freqNetlist({5.0e9, 5.05e9, 5.02e9}, {-1, -1, -1});
    const FreqForceModel model(nl, 0.1e9, 0.75);
    const oracle::PairListFreqForce potential(nl, 0.1e9, 0.75);
    std::vector<Vec2> pos{{900, 1000}, {1500, 1100}, {1100, 1600}};
    std::vector<Vec2> grad;
    model.evaluate(pos, grad);

    const double h = 1e-3;
    std::vector<Vec2> dummy;
    for (std::size_t i = 0; i < pos.size(); ++i) {
        auto plus = pos;
        auto minus = pos;
        plus[i].x += h;
        minus[i].x -= h;
        const double fd = (potential.evaluate(plus, dummy) -
                           potential.evaluate(minus, dummy)) /
                          (2 * h);
        EXPECT_NEAR(grad[i].x, fd, 1e-4 * (1.0 + std::abs(fd)));
    }
}

TEST(FreqForce, CoincidentInstancesGetFinitePush)
{
    const Netlist nl = freqNetlist({5.0e9, 5.0e9}, {-1, -1});
    const FreqForceModel model(nl, 0.1e9, 0.75);
    std::vector<Vec2> pos{{1000, 1000}, {1000, 1000}};
    std::vector<Vec2> grad;
    model.evaluate(pos, grad);
    EXPECT_GT(grad[0].norm(), 0.0);
    EXPECT_TRUE(std::isfinite(grad[0].x));
    EXPECT_TRUE(std::isfinite(grad[0].y));
}

TEST(FreqForce, SameResonatorSegmentsExcluded)
{
    Netlist nl;
    for (int i = 0; i < 2; ++i) {
        Instance seg;
        seg.kind = InstanceKind::ResonatorSegment;
        seg.resonator = 0;
        seg.segment = i;
        seg.width = seg.height = 300;
        seg.pad = 100;
        seg.freqHz = 6.5e9;
        nl.addInstance(seg);
    }
    nl.setRegion(Rect(0, 0, 10000, 10000));
    const FreqForceModel model(nl, 0.1e9, 0.75);
    std::vector<Vec2> pos{{1000, 1000}, {1100, 1000}};
    std::vector<Vec2> grad;
    model.evaluate(pos, grad);
    EXPECT_FALSE(anyForce(grad));
}

TEST(FreqForce, OnlyNearResonantPairsRepel)
{
    const Netlist nl =
        freqNetlist({5.00e9, 5.05e9, 5.30e9}, {-1, -1, -1});
    const FreqForceModel model(nl, 0.1e9, 0.75);
    std::vector<Vec2> pos{{1000, 1000}, {1400, 1000}, {1200, 1300}};
    std::vector<Vec2> grad;
    model.evaluate(pos, grad);
    EXPECT_TRUE(pushed(grad, 0));
    EXPECT_TRUE(pushed(grad, 1));
    EXPECT_FALSE(pushed(grad, 2));
}

TEST(FreqForce, ThresholdIsStrict)
{
    // Exactly Delta_c apart, with the lower frequency on either index.
    for (const std::vector<double> &freqs :
         {std::vector<double>{5.0e9, 5.1e9},
          std::vector<double>{5.1e9, 5.0e9}}) {
        const Netlist nl = freqNetlist(freqs, {-1, -1});
        const FreqForceModel model(nl, 0.1e9, 0.75);
        std::vector<Vec2> pos{{1000, 1000}, {1200, 1000}};
        std::vector<Vec2> grad;
        model.evaluate(pos, grad);
        EXPECT_FALSE(anyForce(grad));
    }
}

TEST(FreqForce, SameResonatorExcludedOtherResonatorsRepel)
{
    // Eq. 10's (1 - delta) term: segments of one resonator never repel,
    // but a segment of another resonator at the same frequency does.
    Netlist nl;
    for (int r : {3, 3, 7}) {
        Instance seg;
        seg.kind = InstanceKind::ResonatorSegment;
        seg.resonator = r;
        seg.segment = r == 3 ? static_cast<int>(nl.instances().size()) : 0;
        seg.width = seg.height = 300;
        seg.pad = 100;
        seg.freqHz = 6.5e9;
        nl.addInstance(seg);
    }
    nl.setRegion(Rect(0, 0, 10000, 10000));
    const FreqForceModel model(nl, 0.1e9, 0.75);
    std::vector<Vec2> grad;
    std::vector<Vec2> apart{{1000, 1000}, {1100, 1000}, {5000, 5000}};
    model.evaluate(apart, grad);
    EXPECT_FALSE(anyForce(grad));
    std::vector<Vec2> near{{1000, 1000}, {1100, 1000}, {1050, 1100}};
    model.evaluate(near, grad);
    EXPECT_TRUE(pushed(grad, 0));
    EXPECT_TRUE(pushed(grad, 1));
    EXPECT_TRUE(pushed(grad, 2));
}

TEST(FreqForce, QubitAndResonatorBandsNeverRepel)
{
    const Netlist nl = freqNetlist({5.2e9, 6.0e9}, {-1, 0});
    const FreqForceModel model(nl, 0.1e9, 0.75);
    std::vector<Vec2> pos{{1000, 1000}, {1100, 1000}};
    std::vector<Vec2> grad;
    model.evaluate(pos, grad);
    EXPECT_FALSE(anyForce(grad));
}

TEST(FreqForce, CustomThreshold)
{
    const Netlist nl = freqNetlist({5.0e9, 5.3e9}, {-1, -1});
    std::vector<Vec2> pos{{1000, 1000}, {1200, 1000}};
    std::vector<Vec2> grad;
    FreqForceModel(nl, 0.5e9, 0.75).evaluate(pos, grad);
    EXPECT_TRUE(anyForce(grad));
    FreqForceModel(nl, 0.2e9, 0.75).evaluate(pos, grad);
    EXPECT_FALSE(anyForce(grad));
}

TEST(FreqForce, SlotGroupsRepelWithinTheirSlotOnly)
{
    // 30 qubits on 3 frequency slots in one tight cluster: the force is
    // the sum of the three per-slot forces.
    std::vector<double> freqs;
    std::vector<Vec2> pos;
    for (int i = 0; i < 30; ++i) {
        freqs.push_back(5.0e9 + (i % 3) * 0.15e9);
        pos.emplace_back(1000.0 + 90.0 * (i % 6), 1000.0 + 110.0 * (i / 6));
    }
    const Netlist nl = freqNetlist(freqs, std::vector<int>(30, -1));
    std::vector<Vec2> grad;
    FreqForceModel(nl, 0.1e9, 0.75).evaluate(pos, grad);
    EXPECT_TRUE(anyForce(grad));

    for (int slot = 0; slot < 3; ++slot) {
        std::vector<double> slot_freqs;
        std::vector<Vec2> slot_pos;
        for (int i = slot; i < 30; i += 3) {
            slot_freqs.push_back(freqs[i]);
            slot_pos.push_back(pos[i]);
        }
        const Netlist slot_nl =
            freqNetlist(slot_freqs, std::vector<int>(10, -1));
        std::vector<Vec2> slot_grad;
        FreqForceModel(slot_nl, 0.1e9, 0.75).evaluate(slot_pos, slot_grad);
        for (std::size_t k = 0; k < slot_grad.size(); ++k) {
            const std::size_t i = slot + 3 * k;
            EXPECT_NEAR(grad[i].x, slot_grad[k].x,
                        1e-12 * (1.0 + std::abs(slot_grad[k].x)));
            EXPECT_NEAR(grad[i].y, slot_grad[k].y,
                        1e-12 * (1.0 + std::abs(slot_grad[k].y)));
        }
    }
}

TEST(FreqForce, ForcesAreEqualAndOpposite)
{
    const Netlist nl = freqNetlist({5.0e9, 5.01e9, 5.02e9}, {-1, -1, -1});
    const FreqForceModel model(nl, 0.1e9, 0.75);
    std::vector<Vec2> pos{{1000, 1000}, {1300, 1100}, {1100, 1400}};
    std::vector<Vec2> grad;
    model.evaluate(pos, grad);
    const Vec2 net = grad[0] + grad[1] + grad[2];
    const double scale = grad[0].norm() + grad[1].norm() + grad[2].norm();
    EXPECT_GT(scale, 0.0);
    EXPECT_NEAR(net.norm(), 0.0, 1e-12 * scale);
}

TEST(FreqForce, PositionCountMismatchPanics)
{
    const Netlist nl = freqNetlist({5.0e9, 5.0e9}, {-1, -1});
    const FreqForceModel model(nl, 0.1e9, 0.75);
    std::vector<Vec2> grad;
    EXPECT_THROW(model.evaluate({{0, 0}}, grad), std::logic_error);
}

TEST(FreqForce, NonFinitePositionsFeelNoForce)
{
    const Netlist nl = freqNetlist({5.0e9, 5.0e9, 5.0e9}, {-1, -1, -1});
    const FreqForceModel model(nl, 0.1e9, 0.75);
    std::vector<Vec2> pos{{1000, 1000}, {1500, 1000}, {NAN, 1000}};
    std::vector<Vec2> grad;
    model.evaluate(pos, grad);
    for (const Vec2 &g : grad) {
        EXPECT_TRUE(std::isfinite(g.x));
        EXPECT_TRUE(std::isfinite(g.y));
    }
    EXPECT_TRUE(pushed(grad, 0));
    EXPECT_FALSE(pushed(grad, 2));
}

} // namespace
} // namespace qplacer
