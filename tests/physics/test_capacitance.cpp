#include <gtest/gtest.h>

#include "physics/capacitance.hpp"

namespace qplacer {
namespace {

TEST(Capacitance, MonotonicallyDecreasing)
{
    // Fig. 5 (qubits) and Fig. 6c (resonators): Cp grows as the
    // components approach.
    for (const CapacitanceModel &m :
         {CapacitanceModel::qubitQubit(),
          CapacitanceModel::resonatorResonator()}) {
        double prev = m.cp(0.0);
        for (double d = 50.0; d <= 5000.0; d += 50.0) {
            const double c = m.cp(d);
            EXPECT_LT(c, prev) << "at d=" << d;
            prev = c;
        }
    }
}

TEST(Capacitance, ContactLimit)
{
    const CapacitanceModel m(50.0, 150.0, 4.0);
    EXPECT_DOUBLE_EQ(m.cp(0.0), 50.0);
    EXPECT_DOUBLE_EQ(m.c0(), 50.0);
}

TEST(Capacitance, KneeAtD0)
{
    const CapacitanceModel m(80.0, 200.0, 4.0);
    EXPECT_NEAR(m.cp(200.0), 40.0, 1e-9); // half the contact value
}

TEST(Capacitance, SharpFalloffBeyondPitch)
{
    // The quartic decay confines crosstalk to adjacent components: one
    // extra pitch reduces Cp by more than 10x.
    const CapacitanceModel m = CapacitanceModel::qubitQubit();
    EXPECT_GT(m.cp(800.0) / m.cp(1600.0), 10.0);
}

TEST(Capacitance, InvalidParametersAreFatal)
{
    EXPECT_THROW(CapacitanceModel(0.0, 1.0, 1.0), std::runtime_error);
    EXPECT_THROW(CapacitanceModel(1.0, -1.0, 1.0), std::runtime_error);
    EXPECT_THROW(CapacitanceModel(1.0, 1.0, 0.0), std::runtime_error);
}

TEST(Capacitance, NegativeDistancePanics)
{
    const CapacitanceModel m = CapacitanceModel::qubitQubit();
    EXPECT_THROW(m.cp(-1.0), std::logic_error);
}

TEST(Capacitance, ResonatorModelHasLongerReach)
{
    const CapacitanceModel q = CapacitanceModel::qubitQubit();
    const CapacitanceModel r = CapacitanceModel::resonatorResonator();
    EXPECT_GT(r.cp(500.0), q.cp(500.0));
}

} // namespace
} // namespace qplacer
