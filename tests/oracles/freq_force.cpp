#include <algorithm>
#include <cmath>
#include <numeric>

#include "oracles/oracles.hpp"
#include "util/logging.hpp"

namespace qplacer::oracle {

PairListFreqForce::PairListFreqForce(const Netlist &netlist,
                                     double threshold_hz,
                                     double cutoff_factor)
    : cutoffFactor_(cutoff_factor)
{
    if (cutoff_factor <= 0.0)
        fatal("PairListFreqForce: non-positive cutoff factor");
    charge_.resize(netlist.instances().size());
    for (std::size_t i = 0; i < charge_.size(); ++i)
        charge_[i] = std::sqrt(netlist.instances()[i].paddedArea());

    const std::vector<double> freqs_hz = netlist.frequencies();
    const std::vector<int> group = netlist.resonatorGroups();
    const std::size_t n = freqs_hz.size();
    partners_.resize(n);

    // Sort indices by frequency and sweep a window of width threshold;
    // this is O(n log n + pairs) instead of O(n^2).
    std::vector<std::int32_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::int32_t a, std::int32_t b) {
                  return freqs_hz[a] < freqs_hz[b];
              });

    std::size_t window_start = 0;
    for (std::size_t k = 0; k < n; ++k) {
        const std::int32_t i = order[k];
        while (freqs_hz[i] - freqs_hz[order[window_start]] >=
               threshold_hz) {
            ++window_start;
        }
        for (std::size_t m = window_start; m < k; ++m) {
            const std::int32_t j = order[m];
            if (group[i] >= 0 && group[i] == group[j])
                continue; // same resonator: excluded by (1 - delta)
            partners_[i].push_back(j);
            partners_[j].push_back(i);
        }
    }
    for (auto &list : partners_)
        std::sort(list.begin(), list.end());
}

double
PairListFreqForce::evaluate(const std::vector<Vec2> &positions,
                            std::vector<Vec2> &gradient) const
{
    if (positions.size() != charge_.size())
        panic("PairListFreqForce::evaluate: position count mismatch");
    gradient.assign(positions.size(), Vec2());

    // Each unordered pair is handled once, by its lower index i, in
    // ascending (i, j) order, and pushes both endpoints.
    double total = 0.0;
    for (std::size_t i = 0; i < positions.size(); ++i) {
        for (std::int32_t j : partners_[i]) {
            if (static_cast<std::size_t>(j) <= i)
                continue; // handle each unordered pair once
            const double s = charge_[i] * charge_[j];
            const double radius = cutoffFactor_ * (charge_[i] + charge_[j]);
            Vec2 delta = positions[i] - positions[j];
            double d = delta.norm();
            if (d >= radius)
                continue; // already spatially isolated
            // Clamp so coincident instances still get a finite, directed
            // push (deterministic tie-break direction from the indices).
            const double d_min = 0.25 * (charge_[i] + charge_[j]);
            if (d < 1e-9) {
                const double ang =
                    0.7548776662 * static_cast<double>(i * 31 + j);
                delta = Vec2(std::cos(ang), std::sin(ang)) * d_min;
                d = d_min;
            } else if (d < d_min) {
                delta = delta * (d_min / d);
                d = d_min;
            }
            total += s * (1.0 / d - 1.0 / radius);
            // dU/dx_i = -s (x_i - x_j) / d^3.
            const double coef = -s / (d * d * d);
            gradient[i] += delta * coef;
            gradient[j] -= delta * coef;
        }
    }
    return total;
}

} // namespace qplacer::oracle
