#include "topology/topology.hpp"

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
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < embedding.size(); ++i) {
        for (std::size_t j = i + 1; j < embedding.size(); ++j)
            best = std::min(best, embedding[i].dist(embedding[j]));
    }
    return best;
}

} // namespace qplacer
