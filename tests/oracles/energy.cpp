#include <algorithm>
#include <cmath>

#include "oracles/oracles.hpp"

namespace qplacer::oracle {

double
smoothWirelength(const Netlist &netlist, double gamma,
                 const std::vector<Vec2> &positions)
{
    const auto axis = [gamma](double d) {
        const double a = std::abs(d);
        return a + 2.0 * gamma * std::log1p(std::exp(-a / gamma));
    };
    double total = 0.0;
    for (const Net &net : netlist.nets()) {
        const Vec2 &pa = positions[net.a];
        const Vec2 &pb = positions[net.b];
        total += net.weight * (axis(pa.x - pb.x) + axis(pa.y - pb.y));
    }
    return total;
}

double
cutPenalty(const Netlist &netlist, const DiePlan &plan,
           const std::vector<Vec2> &positions)
{
    const double inv_width = 1.0 / std::max(plan.region.width(), 1e-9);
    const double inv_height = 1.0 / std::max(plan.region.height(), 1e-9);
    double total = 0.0;
    for (const Net &net : netlist.nets()) {
        const Vec2 &pa = positions[net.a];
        const Vec2 &pb = positions[net.b];
        for (const CutLine &cut : plan.cuts) {
            const double da = (cut.vertical ? pa.x : pa.y) - cut.coordUm;
            const double db = (cut.vertical ? pb.x : pb.y) - cut.coordUm;
            total += net.weight * std::max(0.0, -da * db) *
                     (cut.vertical ? inv_width : inv_height);
        }
    }
    return total;
}

} // namespace qplacer::oracle
