/**
 * @file
 * Tunable parameters of the global placement engine.
 */

#ifndef QPLACER_CORE_PARAMS_HPP
#define QPLACER_CORE_PARAMS_HPP

#include <cstdint>

namespace qplacer {

/** Global placement engine knobs (defaults follow Section V-C). */
struct PlacerParams
{
    /** Iteration budget for the Nesterov loop. */
    int maxIters = 900;

    /** Minimum iterations before convergence may stop the loop. */
    int minIters = 60;

    /** Stop when density overflow drops below this fraction. */
    double stopOverflow = 0.07;

    /**
     * Enable the frequency repulsive force (Eq. 9/10). Disabled for the
     * Classic baseline.
     */
    bool freqForce = true;

    /**
     * Initial frequency-penalty weight relative to the wirelength
     * gradient (analogous to the density lambda initialization).
     */
    double freqWeight = 1.0;

    /**
     * Worker threads for the placement hot path (0 = hardware
     * concurrency, capped; 1 = serial). Changes speed only: the same
     * seed gives the same bits at any thread count (see
     * ARCHITECTURE.md, "Determinism").
     */
    int threads = 0;

    /** RNG seed for the initial-placement jitter. */
    std::uint64_t seed = 1;

    /** Initial-placement jitter as a fraction of region size. */
    double jitterFrac = 0.003;
};

} // namespace qplacer

#endif // QPLACER_CORE_PARAMS_HPP
