#include "freq/assigner.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <tuple>

#include "util/logging.hpp"
#include "util/trace.hpp"

namespace qplacer {
namespace {

/**
 * Resonator interference graph: resonators sharing a qubit must be
 * mutually detuned (they hang off the same pad). Sparse build: two
 * couplers share at most one qubit (the coupling graph has no
 * duplicate edges), so enumerating pairs within each qubit's
 * incident-coupler list visits every sharing pair exactly once --
 * O(sum deg^2) instead of the all-pairs O(m^2).
 */
Graph
resonatorShareGraph(const Graph &coupling)
{
    const int nr = coupling.numEdges();
    Graph res(nr);
    std::vector<std::vector<int>> incident(coupling.numNodes());
    for (int e = 0; e < nr; ++e) {
        const auto &[u, v] = coupling.edges()[e];
        incident[u].push_back(e);
        incident[v].push_back(e);
    }
    for (const auto &list : incident) {
        for (std::size_t i = 0; i < list.size(); ++i)
            for (std::size_t j = i + 1; j < list.size(); ++j)
                res.addEdge(list[i], list[j]);
    }
    return res;
}

} // namespace

FrequencyAssigner::FrequencyAssigner(AssignerParams params,
                                     CrosstalkRule rule)
    : params_(params), rule_(rule)
{
}

std::vector<int>
FrequencyAssigner::dsatur(const Graph &graph)
{
    const int n = graph.numNodes();
    std::vector<int> color(n, -1);
    if (n == 0)
        return color;

    // A node's colour is at most its count of distinctly-coloured
    // neighbours, so every colour fits in maxDegree + 1 bits; the used
    // set per node is a flat bitset over that range.
    const int max_colors = graph.maxDegree() + 1;
    const int words = (max_colors + 63) / 64;
    std::vector<std::uint64_t> used(static_cast<std::size_t>(n) * words,
                                    0);
    std::vector<int> sat(n, 0);

    // Candidate order: maximum saturation, ties by maximum degree,
    // then smallest index. A node is re-keyed only when a neighbour's
    // colouring grows its saturation, so total maintenance is
    // O((n + m) log n).
    using Key = std::tuple<int, int, int>; // (-sat, -degree, index)
    std::set<Key> candidates;
    for (int v = 0; v < n; ++v)
        candidates.insert({0, -graph.degree(v), v});

    for (int step = 0; step < n; ++step) {
        const auto [neg_sat, neg_deg, best] = *candidates.begin();
        candidates.erase(candidates.begin());

        // Smallest colour not used by neighbours: first zero bit. The
        // bitset always has one (colour <= saturation < max_colors).
        const std::uint64_t *row =
            used.data() + static_cast<std::size_t>(best) * words;
        int c = 0;
        for (int w = 0; w < words; ++w) {
            if (row[w] != ~std::uint64_t{0}) {
                c = w * 64 + std::countr_one(row[w]);
                break;
            }
        }
        color[best] = c;

        for (int u : graph.neighbors(best)) {
            if (color[u] >= 0)
                continue;
            std::uint64_t &word =
                used[static_cast<std::size_t>(u) * words + c / 64];
            const std::uint64_t bit = std::uint64_t{1} << (c % 64);
            if (word & bit)
                continue;
            word |= bit;
            candidates.erase({-sat[u], -graph.degree(u), u});
            ++sat[u];
            candidates.insert({-sat[u], -graph.degree(u), u});
        }
    }
    return color;
}

std::vector<double>
FrequencyAssigner::colorsToFrequencies(const std::vector<int> &colors,
                                       const Graph &hard_edges,
                                       const FrequencyBand &band,
                                       int *slots_used) const
{
    int num_colors = 0;
    for (int c : colors)
        num_colors = std::max(num_colors, c + 1);

    const int capacity = band.maxSlots(rule_.detuningThresholdHz);
    const int used = std::min(std::max(num_colors, 1), capacity);
    const std::vector<double> slot_freqs = band.slots(used);
    if (slots_used)
        *slots_used = used;

    std::vector<double> freqs(colors.size());
    if (num_colors <= capacity) {
        // Plenty of room: one slot per colour; full distance-2
        // separation in the frequency domain.
        for (std::size_t i = 0; i < colors.size(); ++i)
            freqs[i] = slot_freqs[colors[i]];
        return freqs;
    }

    // Frequency crowding: guarantee the *hard* constraint (no coupled
    // pair resonant) by colouring the hard graph and partitioning the
    // slots between those classes; the fine-grained interference
    // colours then spread instances over their class's slots. Strict
    // slot spacing (exactly Delta_c) keeps different classes detuned.
    warn(str("frequency assigner: ", num_colors, " colours exceed the ",
             capacity, " available slots; partitioning slots between "
                       "hard colour classes"));
    const std::vector<int> hard = dsatur(hard_edges);
    int num_hard = 0;
    for (int c : hard)
        num_hard = std::max(num_hard, c + 1);
    const int classes = std::max(num_hard, 1);
    std::vector<std::vector<int>> class_slots(classes);
    if (classes <= used) {
        // Round-robin partition: every hard class owns a disjoint,
        // non-empty slot list, so no coupled pair can land on the same
        // slot.
        for (int s = 0; s < used; ++s)
            class_slots[s % classes].push_back(s);
    } else {
        // More hard classes than slots: some classes must alias the
        // same slot. Alias them round-robin -- one deterministic slot
        // per class -- instead of scattering the overflow classes over
        // slots owned by others via a per-instance fallback, and
        // report the coupled pairs that stay resonant once, with a
        // count, instead of silently re-creating them.
        for (int c = 0; c < classes; ++c)
            class_slots[c].push_back(c % used);
        int aliased = 0;
        for (const auto &[u, v] : hard_edges.edges()) {
            if (hard[u] % used == hard[v] % used)
                ++aliased;
        }
        warn(str("frequency assigner: ", num_hard,
                 " hard colour classes share ", used, " slots; ",
                 aliased,
                 " coupled pairs stay resonant (unavoidable)"));
    }

    for (std::size_t i = 0; i < colors.size(); ++i) {
        const auto &mine = class_slots[hard[i]];
        freqs[i] = slot_freqs[mine[colors[i] % mine.size()]];
    }
    return freqs;
}

FrequencyAssignment
FrequencyAssigner::assign(const Topology &topo, Trace *trace) const
{
    FrequencyAssignment out;
    const Graph &coupling = topo.coupling;
    const int nq = coupling.numNodes();

    // Qubit interference graph: coupled pairs plus (optionally)
    // distance-2 pairs.
    Trace::Span interference_span(trace, "interference");
    Graph interference(nq);
    for (const auto &[u, v] : coupling.edges())
        interference.addEdge(u, v);
    if (params_.distance2) {
        for (int u = 0; u < nq; ++u) {
            for (int v : coupling.ballAround(u, 2)) {
                if (v > u && !interference.hasEdge(u, v))
                    interference.addEdge(u, v);
            }
        }
    }
    interference_span.stop();

    Trace::Span qubit_color(trace, "qubit_color");
    out.qubitColor = dsatur(interference);
    out.qubitFreqHz =
        colorsToFrequencies(out.qubitColor, coupling, params_.qubitBand,
                            &out.numQubitSlots);
    qubit_color.stop();

    Trace::Span res_graph_span(trace, "resonator_graph");
    const Graph res_graph = resonatorShareGraph(coupling);
    res_graph_span.stop();

    Trace::Span res_color(trace, "resonator_color");
    out.resonatorColor = dsatur(res_graph);
    out.resonatorFreqHz =
        colorsToFrequencies(out.resonatorColor, res_graph,
                            params_.resonatorBand,
                            &out.numResonatorSlots);
    return out;
}

int
FrequencyAssigner::countDomainViolations(
    const Topology &topo, const FrequencyAssignment &assignment) const
{
    int violations = 0;
    for (const auto &[u, v] : topo.coupling.edges()) {
        if (isResonant(assignment.qubitFreqHz[u], assignment.qubitFreqHz[v],
                       rule_.detuningThresholdHz)) {
            ++violations;
        }
    }
    const auto &edges = topo.coupling.edges();
    // Sparse pass: two couplers share at most one qubit, so each
    // sharing pair is seen exactly once across the incident lists --
    // the count matches an all-pairs scan.
    std::vector<std::vector<int>> incident(topo.coupling.numNodes());
    for (std::size_t e = 0; e < edges.size(); ++e) {
        incident[edges[e].first].push_back(static_cast<int>(e));
        incident[edges[e].second].push_back(static_cast<int>(e));
    }
    for (const auto &list : incident) {
        for (std::size_t i = 0; i < list.size(); ++i) {
            for (std::size_t j = i + 1; j < list.size(); ++j) {
                if (isResonant(assignment.resonatorFreqHz[list[i]],
                               assignment.resonatorFreqHz[list[j]],
                               rule_.detuningThresholdHz)) {
                    ++violations;
                }
            }
        }
    }
    return violations;
}

} // namespace qplacer
