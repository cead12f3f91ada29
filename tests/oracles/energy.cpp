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

} // namespace qplacer::oracle
