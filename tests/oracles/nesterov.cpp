#include <algorithm>
#include <cmath>

#include "oracles/oracles.hpp"

namespace qplacer::oracle {

double
largestNorm(const std::vector<Vec2> &gradient)
{
    double m = 0.0;
    for (const Vec2 &g : gradient)
        m = std::max(m, std::hypot(g.x, g.y));
    return m;
}

} // namespace qplacer::oracle
