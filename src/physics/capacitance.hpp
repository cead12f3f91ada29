/**
 * @file
 * Parasitic capacitance versus separation distance.
 *
 * The paper extracts Cp(d) from Qiskit Metal EM simulation (Fig. 5b,
 * Fig. 6c); we substitute a calibrated closed-form decay with the same
 * qualitative behaviour: monotone decreasing, ~fF at contact, negligible
 * beyond a few qubit pitches. tests/physics/test_capacitance.cpp
 * asserts each of those properties.
 */

#ifndef QPLACER_PHYSICS_CAPACITANCE_HPP
#define QPLACER_PHYSICS_CAPACITANCE_HPP

namespace qplacer {

/**
 * Power-law parasitic capacitance model:
 *   Cp(d) = c0 / (1 + (d / d0)^p)     [fF; d in um]
 *
 * The quartic default makes the coupling fall off sharply past one
 * component pitch, which is what confines crosstalk to spatial-violation
 * pairs (Section III-A).
 */
class CapacitanceModel
{
  public:
    /**
     * @param c0 Contact-limit capacitance (fF).
     * @param d0 Knee distance (um).
     * @param p  Decay exponent.
     */
    CapacitanceModel(double c0, double d0, double p);

    /** Parasitic capacitance at center distance @p d_um (fF). */
    double cp(double d_um) const;

    /** Contact-limit capacitance (fF). */
    double c0() const { return c0_; }

    /** Model calibrated for qubit-qubit parasitics. */
    static CapacitanceModel qubitQubit();

    /** Model calibrated for resonator-resonator parasitics. */
    static CapacitanceModel resonatorResonator();

  private:
    double c0_;
    double d0_;
    double p_;
};

} // namespace qplacer

#endif // QPLACER_PHYSICS_CAPACITANCE_HPP
