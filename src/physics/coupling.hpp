/**
 * @file
 * Coupling-strength and Rabi-exchange models (Section III).
 *
 * Implements Eq. (6) for capacitive coupling strength and the
 * (generalized) Rabi transition probability used by the crosstalk
 * error model (Eq. 16). Each function states the formula it evaluates.
 */

#ifndef QPLACER_PHYSICS_COUPLING_HPP
#define QPLACER_PHYSICS_COUPLING_HPP

namespace qplacer {

/**
 * Capacitive coupling strength (Eq. 6):
 *   g = (1/2) sqrt(f1 f2) * Cp / sqrt((C1+Cp)(C2+Cp))   [Hz]
 *
 * @param f1_hz, f2_hz  Component frequencies (Hz).
 * @param cp_ff         Parasitic/coupler capacitance (fF).
 * @param c1_ff, c2_ff  Component self-capacitances (fF).
 */
double couplingStrength(double f1_hz, double f2_hz, double cp_ff,
                        double c1_ff, double c2_ff);

/**
 * Peak population transfer of generalized Rabi oscillation:
 *   A = g^2 / (g^2 + (Delta/2)^2)   in [0, 1].
 */
double rabiAmplitude(double g_hz, double delta_hz);

/**
 * Transition probability after time t:
 *   P(t) = A sin^2(2 pi sqrt(g^2 + (Delta/2)^2) t).
 */
double rabiTransitionProb(double g_hz, double delta_hz, double t_s);

/**
 * Worst-case transition probability over the exposure window [0, t]:
 * the sin^2 envelope, i.e. P(t) before the first Rabi peak and the full
 * amplitude A afterwards. This is the "worst case fidelity" reading of
 * Eq. 16.
 */
double worstCaseTransition(double g_hz, double delta_hz, double t_s);

} // namespace qplacer

#endif // QPLACER_PHYSICS_COUPLING_HPP
