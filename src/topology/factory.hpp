/**
 * @file
 * Name-based topology lookup plus the paper's full evaluation suite.
 */

#ifndef QPLACER_TOPOLOGY_FACTORY_HPP
#define QPLACER_TOPOLOGY_FACTORY_HPP

#include <string>
#include <vector>

#include "topology/topology.hpp"

namespace qplacer {

/**
 * Build a topology by name: "Grid", "Xtree", "Falcon", "Eagle",
 * "Aspen-11", "Aspen-M". fatal() on unknown names.
 */
Topology makeTopology(const std::string &name);

/** Names of the six topologies evaluated in the paper, in paper order. */
std::vector<std::string> paperTopologyNames();

/**
 * Largest dimension a parametric spec accepts (grid256x256 is 65536
 * qubits, far above the largest device the flow is tuned for). Larger
 * dimensions are a bad spec, so no request can stall its reader on an
 * arbitrarily large generator run.
 */
constexpr int kMaxSpecDim = 256;

/**
 * Resolve a user-facing topology spec: a paper device name
 * (case-insensitive) or a parametric gridRxC / heavyhexRxW /
 * octagonRxC spec (e.g. "grid8x8"; each dimension 1..kMaxSpecDim).
 * Any base spec composes with a multi-die suffix
 * "@dies=RxC[:cutGapUm=N]" (e.g.
 * "grid32x32@dies=2x1:cutGapUm=800"); "dies=1x1" is the single-die
 * flow, bit for bit. Shared by the CLI and the server. Returns false
 * with a message in @p error (if non-null) on unknown or malformed
 * specs instead of fatal()ing.
 */
bool resolveTopologySpec(const std::string &spec, Topology &out,
                         std::string *error = nullptr);

} // namespace qplacer

#endif // QPLACER_TOPOLOGY_FACTORY_HPP
