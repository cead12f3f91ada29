/**
 * @file
 * Decoherence error model: T1/T2 decay over idle and gate windows
 * (the epsilon_q decoherence term of Eq. 15).
 */

#ifndef QPLACER_PHYSICS_DECOHERENCE_HPP
#define QPLACER_PHYSICS_DECOHERENCE_HPP

#include "physics/constants.hpp"

namespace qplacer {

/** Exponential T1/T2 decoherence model. */
class DecoherenceModel
{
  public:
    DecoherenceModel(double t1_s = kT1Seconds, double t2_s = kT2Seconds);

    /**
     * Error probability accumulated by one qubit over @p duration_s of
     * wall-clock time (idle or gated):
     *   eps = 1 - exp(-t (1/(2 T1) + 1/(2 T2))).
     */
    double errorOver(double duration_s) const;

    double t1() const { return t1_; }
    double t2() const { return t2_; }

  private:
    double t1_;
    double t2_;
    double rate_; ///< Combined decay rate 1/(2 T1) + 1/(2 T2), 1/s.
};

} // namespace qplacer

#endif // QPLACER_PHYSICS_DECOHERENCE_HPP
