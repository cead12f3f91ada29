/**
 * @file
 * Logical-to-physical mapping of benchmark circuits onto a device
 * subset. It stands in for the Qiskit transpiler the paper uses, so the
 * evaluation needs no Python dependency.
 */

#ifndef QPLACER_CIRCUITS_MAPPER_HPP
#define QPLACER_CIRCUITS_MAPPER_HPP

#include <vector>

#include "circuits/circuit.hpp"
#include "topology/graph.hpp"

namespace qplacer {

/** A circuit routed onto physical qubits of the full device. */
struct MappedCircuit
{
    /** Gates with q0/q1 rewritten to *device* qubit ids. */
    std::vector<Gate> gates;

    /** Device qubits touched by the program. */
    std::vector<int> activeQubits;

    /** SWAPs inserted by routing. */
    int numSwaps = 0;

    /** 1q gate count per device qubit (sparse: only active entries). */
    std::vector<int> gates1q; ///< Indexed by device qubit id.
    std::vector<int> gates2q; ///< Indexed by device qubit id.
};

/**
 * Greedy mapper + SWAP router.
 *
 * Initial mapping follows the subset's BFS order from its most central
 * node; every non-adjacent 2q gate is routed by swapping the first
 * operand along a shortest path until adjacency. Deterministic.
 */
class Mapper
{
  public:
    /**
     * @param device Full device coupling graph.
     */
    explicit Mapper(const Graph &device);

    /**
     * Map @p circuit onto @p subset (device qubit ids; must be a
     * connected set of size >= circuit.numQubits()).
     */
    MappedCircuit map(const Circuit &circuit,
                      const std::vector<int> &subset) const;

  private:
    const Graph &device_;
};

} // namespace qplacer

#endif // QPLACER_CIRCUITS_MAPPER_HPP
