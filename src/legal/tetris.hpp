/**
 * @file
 * Tetris-style legalization of resonator segments ([17] in the paper):
 * segments are processed left to right and dropped into the nearest
 * free slot of the occupancy grid, minimizing displacement while
 * preserving the global placement's ordering.
 */

#ifndef QPLACER_LEGAL_TETRIS_HPP
#define QPLACER_LEGAL_TETRIS_HPP

#include <vector>

#include "legal/occupancy.hpp"
#include "netlist/netlist.hpp"

namespace qplacer {

/**
 * Legalize all resonator segments of @p netlist onto @p grid (which
 * already contains the fixed qubits). Updates instance positions and
 * occupies the grid.
 *
 * When @p resonance_check is set (Qplacer mode), candidate slots
 * that fail the tau probe under @p rule (resonanceOk) are skipped
 * within a bounded search radius (falling back to the plain nearest
 * slot when no clean one exists), so the tau constraint survives
 * legalization.
 *
 * @param displacement_um Out: total displacement over all segments.
 * @return false if some segment found no free slot (caller should
 *         retry with a larger region).
 */
bool tetrisLegalizeSegments(Netlist &netlist, OccupancyGrid &grid,
                            bool resonance_check,
                            const CrosstalkRule &rule,
                            double &displacement_um);

} // namespace qplacer

#endif // QPLACER_LEGAL_TETRIS_HPP
