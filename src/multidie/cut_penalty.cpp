#include "multidie/cut_penalty.hpp"

#include <algorithm>

namespace qplacer {

CutPenaltyModel::CutPenaltyModel(const Netlist &netlist, const DiePlan &plan)
    : netlist_(netlist),
      cuts_(plan.cuts),
      invWidth_(1.0 / std::max(plan.region.width(), 1e-9)),
      invHeight_(1.0 / std::max(plan.region.height(), 1e-9))
{
}

void
CutPenaltyModel::evaluate(const std::vector<Vec2> &positions,
                          std::vector<Vec2> &gradient) const
{
    gradient.assign(positions.size(), Vec2());
    for (const Net &net : netlist_.nets()) {
        const std::size_t a = static_cast<std::size_t>(net.a);
        const std::size_t b = static_cast<std::size_t>(net.b);
        for (const CutLine &cut : cuts_) {
            const double scale =
                net.weight * (cut.vertical ? invWidth_ : invHeight_);
            const double da = (cut.vertical ? positions[a].x
                                            : positions[a].y) -
                              cut.coordUm;
            const double db = (cut.vertical ? positions[b].x
                                            : positions[b].y) -
                              cut.coordUm;
            const double prod = da * db;
            if (prod >= 0.0)
                continue; // Same side of the cut: no penalty.
            // d(-da*db)/da = -db (> 0 when da < 0): the gradient pushes
            // each endpoint toward -- and past -- the cut line.
            if (cut.vertical) {
                gradient[a].x += -db * scale;
                gradient[b].x += -da * scale;
            } else {
                gradient[a].y += -db * scale;
                gradient[b].y += -da * scale;
            }
        }
    }
}

} // namespace qplacer
