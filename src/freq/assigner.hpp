/**
 * @file
 * Frequency assigner (Fig. 7a): allocates frequencies to qubits and
 * coupling resonators so that all *interconnected* components are
 * detuned by more than the threshold.
 *
 * Interference graph: coupled qubit pairs, optionally augmented with
 * distance-2 pairs (spectator collisions), coloured with DSATUR. Colours
 * map to slot frequencies; when the device needs more colours than the
 * band has slots, slots are reused round-robin -- the resulting same-
 * frequency components are graph-distant and become the placement
 * engine's spatial-isolation workload.
 *
 * Scaling: DSATUR selects candidates from an ordered saturation heap
 * with per-node colour bitsets (O((n + m) log n)) and the resonator
 * share graph is built from per-qubit incident-coupler lists
 * (O(sum deg^2)). Assignments are identical to the linear-scan /
 * all-pairs oracles in tests/oracles (gated by ctest -L assign).
 */

#ifndef QPLACER_FREQ_ASSIGNER_HPP
#define QPLACER_FREQ_ASSIGNER_HPP

#include <vector>

#include "freq/spectrum.hpp"
#include "netlist/netlist.hpp"
#include "topology/topology.hpp"

namespace qplacer {

class Trace;

/** Frequencies chosen for one device. */
struct FrequencyAssignment
{
    /** Frequency per qubit (Hz), indexed by topology qubit id. */
    std::vector<double> qubitFreqHz;

    /** Frequency per coupler/resonator (Hz), indexed by edge id. */
    std::vector<double> resonatorFreqHz;

    /** Colour per qubit (diagnostic). */
    std::vector<int> qubitColor;

    /** Colour per resonator (diagnostic). */
    std::vector<int> resonatorColor;

    /** Number of distinct qubit frequencies used. */
    int numQubitSlots = 0;

    /** Number of distinct resonator frequencies used. */
    int numResonatorSlots = 0;
};

/** Parameters of the frequency assigner. */
struct AssignerParams
{
    FrequencyBand qubitBand = FrequencyBand::qubitBand();
    FrequencyBand resonatorBand = FrequencyBand::resonatorBand();

    /** Also separate distance-2 qubit pairs in frequency when possible. */
    bool distance2 = true;
};

/** Graph-colouring frequency assigner. */
class FrequencyAssigner
{
  public:
    /** Slots are spaced, and violations judged, by @p rule's Delta_c. */
    explicit FrequencyAssigner(AssignerParams params = {},
                               CrosstalkRule rule = {});

    /**
     * Assign frequencies for @p topo. @p trace (optional) gets the
     * sub-stage spans "interference", "qubit_color", "resonator_graph"
     * and "resonator_color".
     */
    FrequencyAssignment assign(const Topology &topo,
                               Trace *trace = nullptr) const;

    /**
     * DSATUR greedy colouring of @p graph; returns colour per node.
     * Selection order -- maximum saturation, then maximum degree, then
     * smallest index -- is implemented with an ordered candidate set
     * and per-node colour bitsets; colourings are identical to the
     * linear-scan oracle on every graph. Exposed for testing.
     */
    static std::vector<int> dsatur(const Graph &graph);

    /**
     * Verify that no *coupled* pair of qubits (and no two resonators
     * sharing a qubit) is resonant under @p assignment. Returns the
     * number of violations. The resonator pass walks per-qubit
     * incident-coupler lists; counts agree with an all-pairs scan.
     */
    int countDomainViolations(const Topology &topo,
                              const FrequencyAssignment &assignment) const;

  private:
    /**
     * Map colours to slot frequencies. When the colour count exceeds
     * the band's slot capacity, slots are reused -- but never between
     * colour classes joined by a *hard* edge (direct couplings), so the
     * frequency-domain isolation of connected components survives
     * crowding. When even the hard chromatic number exceeds the slot
     * count, hard classes alias slots round-robin (deterministically,
     * one slot per class) and the unavoidable still-resonant coupled
     * pairs are counted and reported once.
     */
    std::vector<double>
    colorsToFrequencies(const std::vector<int> &colors,
                        const Graph &hard_edges,
                        const FrequencyBand &band, int *slots_used) const;

    AssignerParams params_;
    CrosstalkRule rule_;
};

} // namespace qplacer

#endif // QPLACER_FREQ_ASSIGNER_HPP
