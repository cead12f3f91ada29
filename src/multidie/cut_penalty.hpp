/**
 * @file
 * Differentiable cut-crossing penalty for multi-die global placement.
 *
 * For each 2-pin net and each cut line, a crossing contributes a hinge
 * product: with endpoint coordinates a, b on the axis crossing a cut
 * at c,
 *
 *   f = w * max(0, -(a - c) * (b - c)) / L
 *
 * (L the region extent on that axis, for unit sanity). f is zero when
 * both endpoints sit on the same side of the cut and grows with how
 * deep the net straddles it; the gradient pulls both endpoints toward
 * the cut until the net collapses onto one die. Plugged into the
 * penalty objective as lambda_cut * F alongside wirelength, density,
 * and the frequency force, with lambda_cut initialized lazily from
 * gradient-norm ratios exactly like the frequency penalty.
 */

#ifndef QPLACER_MULTIDIE_CUT_PENALTY_HPP
#define QPLACER_MULTIDIE_CUT_PENALTY_HPP

#include <vector>

#include "multidie/die_plan.hpp"
#include "netlist/netlist.hpp"

namespace qplacer {

/** Cut-crossing penalty term F(x, y) and its gradient. */
class CutPenaltyModel
{
  public:
    CutPenaltyModel(const Netlist &netlist, const DiePlan &plan);

    /**
     * Gradient of the penalty at @p positions: @p gradient is resized
     * and overwritten with dF/dposition per instance.
     */
    void evaluate(const std::vector<Vec2> &positions,
                  std::vector<Vec2> &gradient) const;

  private:
    const Netlist &netlist_;
    std::vector<CutLine> cuts_;
    double invWidth_;  ///< 1 / region width (vertical-cut scale).
    double invHeight_; ///< 1 / region height (horizontal-cut scale).
};

} // namespace qplacer

#endif // QPLACER_MULTIDIE_CUT_PENALTY_HPP
