#include "topology/topology.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "geometry/near_pairs.hpp"
#include "util/logging.hpp"

namespace qplacer {

void
Topology::validate() const
{
    if (static_cast<int>(embedding.size()) != coupling.numNodes()) {
        panic(str("Topology '", name, "': embedding size ",
                  embedding.size(), " != node count ",
                  coupling.numNodes()));
    }
    if (!coupling.isConnected())
        panic(str("Topology '", name, "': coupling graph disconnected"));
    // Coincident qubits lie within 1e-9 of each other on both axes,
    // so the near-pair sweep's window holds every pair the exact test
    // flags. Report the first such pair in (i, j) order.
    constexpr double kCoincident = 1e-9;
    std::vector<NearPoint> points(embedding.size());
    for (std::size_t i = 0; i < embedding.size(); ++i)
        points[i] = {embedding[i], static_cast<std::int32_t>(i)};
    std::pair<int, int> first{-1, -1};
    forEachNearPair(points, kCoincident, [&](int i, int j) {
        if (embedding[i].dist(embedding[j]) < kCoincident &&
            (first.first < 0 || std::make_pair(i, j) < first))
            first = {i, j};
    });
    if (first.first >= 0) {
        panic(str("Topology '", name, "': qubits ", first.first, " and ",
                  first.second, " share an embedding position"));
    }
}

double
Topology::minEmbeddingSpacing() const
{
    std::vector<NearPoint> points;
    points.reserve(embedding.size());
    for (std::size_t i = 0; i < embedding.size(); ++i)
        if (std::isfinite(embedding[i].x) && std::isfinite(embedding[i].y))
            points.push_back({embedding[i], static_cast<std::int32_t>(i)});
    if (points.size() < 2)
        return std::numeric_limits<double>::infinity();
    // Any one pair's distance bounds the minimum from above, and a
    // pair closer than that lies inside the window on both axes. The
    // pad covers a hypot that rounds below max(|dx|, |dy|).
    double best = points[0].pos.dist(points[1].pos);
    forEachNearPair(points, best * (1.0 + 1e-9), [&](int i, int j) {
        best = std::min(best, embedding[i].dist(embedding[j]));
    });
    return best;
}

} // namespace qplacer
