/**
 * @file
 * SVG rendering of placed layouts (the Fig. 14 artifact, drawn as SVG
 * where the paper exports GDS). Components are colour-coded by
 * frequency and resonator meanders are drawn through their segment
 * chains.
 */

#ifndef QPLACER_IO_SVG_HPP
#define QPLACER_IO_SVG_HPP

#include <string>

#include "netlist/netlist.hpp"

namespace qplacer {

/** SVG renderer options. */
struct SvgOptions
{
    double scale = 0.05;     ///< Pixels per um.
    bool drawPadding = true; ///< Outline padded footprints.
    bool drawMeander = true; ///< Route the resonator wire via segments.
    bool drawLabels = true;  ///< Qubit indices.
};

/** Write the layout of @p netlist to @p path as an SVG document. */
void writeLayoutSvg(const Netlist &netlist, const std::string &path,
                    SvgOptions options = {});

/** Return the SVG document as a string (for tests). */
std::string layoutSvg(const Netlist &netlist, SvgOptions options = {});

} // namespace qplacer

#endif // QPLACER_IO_SVG_HPP
