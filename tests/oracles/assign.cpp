#include <set>

#include "oracles/oracles.hpp"

namespace qplacer::oracle {

std::vector<int>
dsaturReference(const Graph &graph)
{
    const int n = graph.numNodes();
    std::vector<int> color(n, -1);
    std::vector<std::set<int>> neighbor_colors(n);

    for (int step = 0; step < n; ++step) {
        // Pick the uncoloured node with maximum saturation, breaking
        // ties by degree then by index (deterministic).
        int best = -1;
        for (int v = 0; v < n; ++v) {
            if (color[v] >= 0)
                continue;
            if (best < 0)
                best = v;
            const auto sat_v = neighbor_colors[v].size();
            const auto sat_b = neighbor_colors[best].size();
            if (sat_v > sat_b ||
                (sat_v == sat_b && graph.degree(v) > graph.degree(best))) {
                best = v;
            }
        }
        // Smallest colour not used by neighbours.
        int c = 0;
        while (neighbor_colors[best].count(c))
            ++c;
        color[best] = c;
        for (int u : graph.neighbors(best))
            neighbor_colors[u].insert(c);
    }
    return color;
}

Graph
resonatorShareGraphAllPairs(const Graph &coupling)
{
    const int nr = coupling.numEdges();
    Graph res(nr);
    for (int a = 0; a < nr; ++a) {
        const auto &[a1, a2] = coupling.edges()[a];
        for (int b = a + 1; b < nr; ++b) {
            const auto &[b1, b2] = coupling.edges()[b];
            const bool share =
                a1 == b1 || a1 == b2 || a2 == b1 || a2 == b2;
            if (share)
                res.addEdge(a, b);
        }
    }
    return res;
}

int
countDomainViolationsAllPairs(const Topology &topo,
                              const FrequencyAssignment &assignment,
                              double detuning_threshold_hz)
{
    int violations = 0;
    for (const auto &[u, v] : topo.coupling.edges()) {
        if (isResonant(assignment.qubitFreqHz[u], assignment.qubitFreqHz[v],
                       detuning_threshold_hz)) {
            ++violations;
        }
    }
    const auto &edges = topo.coupling.edges();
    for (std::size_t a = 0; a < edges.size(); ++a) {
        for (std::size_t b = a + 1; b < edges.size(); ++b) {
            const bool share = edges[a].first == edges[b].first ||
                               edges[a].first == edges[b].second ||
                               edges[a].second == edges[b].first ||
                               edges[a].second == edges[b].second;
            if (share &&
                isResonant(assignment.resonatorFreqHz[a],
                           assignment.resonatorFreqHz[b],
                           detuning_threshold_hz)) {
                ++violations;
            }
        }
    }
    return violations;
}

} // namespace qplacer::oracle
