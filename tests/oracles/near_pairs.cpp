#include <algorithm>
#include <limits>

#include "oracles/oracles.hpp"

namespace qplacer::oracle {

std::vector<std::pair<std::int32_t, std::int32_t>>
nearPairs(const std::vector<Vec2> &points, double reach)
{
    const double r2 = reach * reach;
    std::vector<std::pair<std::int32_t, std::int32_t>> out;
    for (std::size_t a = 0; a < points.size(); ++a) {
        for (std::size_t b = a + 1; b < points.size(); ++b) {
            const Vec2 d = points[b] - points[a];
            if (d.x * d.x <= r2 && d.y * d.y <= r2)
                out.emplace_back(static_cast<std::int32_t>(a),
                                 static_cast<std::int32_t>(b));
        }
    }
    return out;
}

double
minEmbeddingSpacing(const Topology &topo)
{
    const std::vector<Vec2> &embedding = topo.embedding;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < embedding.size(); ++i) {
        for (std::size_t j = i + 1; j < embedding.size(); ++j)
            best = std::min(best, embedding[i].dist(embedding[j]));
    }
    return best;
}

std::vector<HotspotPair>
hotspotPairs(const Netlist &netlist, const CrosstalkRule &rule)
{
    const auto &instances = netlist.instances();
    double max_extent = 0.0;
    for (const Instance &inst : instances)
        max_extent = std::max(
            {max_extent, inst.paddedWidth(), inst.paddedHeight()});
    const double reach = max_extent + rule.adjacencyTolUm;
    const double tol = rule.adjacencyTolUm;

    std::vector<HotspotPair> out;
    for (std::size_t a = 0; a < instances.size(); ++a) {
        for (std::size_t b = a + 1; b < instances.size(); ++b) {
            const Instance &p = instances[a];
            const Instance &q = instances[b];
            if (!((q.pos - p.pos).normSq() <= reach * reach))
                continue;
            double gap = 0.0;
            if (!rule.hotspotPair(p, q, gap))
                continue;
            HotspotPair pair;
            pair.a = p.id;
            pair.b = q.id;
            pair.gapUm = gap;
            pair.distUm = p.pos.dist(q.pos);
            pair.overlapLenUm =
                p.paddedRect().inflated(tol / 2.0).overlapLength(
                    q.paddedRect().inflated(tol / 2.0));
            out.push_back(pair);
        }
    }
    return out;
}

} // namespace qplacer::oracle
