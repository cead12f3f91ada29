/**
 * @file
 * Full legalization pipeline (Fig. 7d), one pass over every instance
 * (the incremental re-place runs it the same way a cold run does):
 *   1. qubits: greedy spiral search, central-first;
 *   2. resonator segments: Tetris-style scan;
 *   3. integration-aware repair (Algorithm 1).
 */

#ifndef QPLACER_LEGAL_LEGALIZER_HPP
#define QPLACER_LEGAL_LEGALIZER_HPP

#include "legal/integration.hpp"
#include "netlist/netlist.hpp"
#include "util/cancel.hpp"

namespace qplacer {

class Trace;

/** Legalizer configuration. */
struct LegalizerParams
{
    /** Run the integration-aware repair pass. */
    bool integration = true;

    /**
     * Validate Tetris slots and Algorithm 1 moves/swaps against the
     * resonance checker tau (off in Classic mode).
     */
    bool resonanceCheck = true;
};

/** Legalization outcome. */
struct LegalizeResult
{
    double qubitDisplacementUm = 0.0;
    double segmentDisplacementUm = 0.0;
    IntegrationLegalizer::Result integration;
    bool legal = false;     ///< No padded-footprint overlaps at exit.
    bool cancelled = false; ///< Stopped early by a CancelToken.
};

/** End-to-end legalizer. */
class Legalizer
{
  public:
    /**
     * Occupancy cell size (um) of every legalized layout; must divide
     * all padded footprints. The detailed placer walks the same grid.
     */
    static constexpr double kCellUm = 100.0;

    /** @p rule is the crosstalk rule of the tau-checked passes. */
    explicit Legalizer(LegalizerParams params = {}, CrosstalkRule rule = {});

    /**
     * Legalize @p netlist in place. If the region is too fragmented to
     * fit everything, it is grown by 8% steps (up to 3 retries) before
     * giving up with fatal(). @p cancel (optional) is polled at pass
     * boundaries; on cancellation the partially legalized layout is
     * left in place and the result carries cancelled = true.
     * @p trace (optional) gets the "spiral", "tetris" and
     * "integration" pass spans, each summed over retried attempts.
     */
    LegalizeResult legalize(Netlist &netlist,
                            const CancelToken *cancel = nullptr,
                            Trace *trace = nullptr) const;

    /**
     * Verify no two padded footprints overlap (with small tolerance)
     * and all instances are in-region.
     */
    static bool isLegal(const Netlist &netlist, double tol_um = 1.0);

  private:
    /** One pass over every instance; false if the region ran out of room. */
    bool attempt(Netlist &netlist, LegalizeResult &result,
                 const CancelToken *cancel, Trace *trace) const;

    LegalizerParams params_;
    CrosstalkRule rule_;
};

} // namespace qplacer

#endif // QPLACER_LEGAL_LEGALIZER_HPP
