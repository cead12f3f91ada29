#include "physics/capacitance.hpp"

#include <cmath>

#include "util/logging.hpp"

namespace qplacer {

CapacitanceModel::CapacitanceModel(double c0, double d0, double p)
    : c0_(c0), d0_(d0), p_(p)
{
    if (c0 <= 0.0 || d0 <= 0.0 || p <= 0.0)
        fatal("CapacitanceModel: parameters must be positive");
}

double
CapacitanceModel::cp(double d_um) const
{
    if (d_um < 0.0)
        panic("CapacitanceModel::cp: negative distance");
    return c0_ / (1.0 + std::pow(d_um / d0_, p_));
}

CapacitanceModel
CapacitanceModel::qubitQubit()
{
    // Calibrated so that two resonant qubits whose padded footprints abut
    // (center distance ~0.8 mm) exchange energy strongly on program time
    // scales (g ~ MHz), while pairs a pitch further out are far weaker
    // (Coupling.DistanceChainBehavesLikeFig5 checks both ends).
    return CapacitanceModel(50.0, 150.0, 4.0);
}

CapacitanceModel
CapacitanceModel::resonatorResonator()
{
    // Resonator meanders couple over somewhat longer reach (larger
    // structures), with a bigger contact-limit capacitance.
    return CapacitanceModel(120.0, 200.0, 4.0);
}

} // namespace qplacer
