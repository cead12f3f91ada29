/**
 * @file
 * The user-facing `--set KEY=VALUE` knob surface, shared by the CLI,
 * the server protocol ("set" maps in submit requests), and the doc
 * lint (scripts/check_knob_docs.sh greps kKnownSetKeys so BUILDING.md
 * cannot silently drop a knob, and checks applyOverrides reads every
 * key). Only leaf-value mapping and value syntax live here; range
 * validation stays in FlowParams::normalized().
 */

#ifndef QPLACER_PIPELINE_OVERRIDES_HPP
#define QPLACER_PIPELINE_OVERRIDES_HPP

#include <cstddef>
#include <string>

#include "pipeline/flow.hpp"
#include "util/config.hpp"

namespace qplacer {

/** Keys understood by --set / request "set"; anything else errors. */
extern const char *const kKnownSetKeys[];

/** Number of entries in kKnownSetKeys. */
std::size_t numKnownSetKeys();

/** True when @p key is one of kKnownSetKeys. */
bool isKnownSetKey(const std::string &key);

/**
 * Map override values from @p cfg onto the flow parameter tree.
 * Unknown keys in @p cfg are ignored here; reject them at intake with
 * isKnownSetKey() so the error names the offending key. A malformed
 * value fatal()s.
 */
void applyOverrides(const Config &cfg, FlowParams &params);

/** applyOverrides' error for @p cfg, or "": the no-throw intake check. */
std::string checkOverrides(const Config &cfg);

} // namespace qplacer

#endif
