#include "legal/anneal.hpp"
#include "oracles/oracles.hpp"

namespace qplacer::oracle {

double
detailedObjective(const Netlist &netlist, const CrosstalkRule &rule)
{
    double hinge = 0.0;
    const auto &instances = netlist.instances();
    for (std::size_t a = 0; a < instances.size(); ++a) {
        for (std::size_t b = a + 1; b < instances.size(); ++b) {
            double gap = 0.0;
            if (rule.hotspotPair(instances[a], instances[b], gap))
                hinge += rule.adjacencyTolUm - gap;
        }
    }
    return netlist.hpwl() + DetailedPlacer::kFidelityWeight * hinge;
}

} // namespace qplacer::oracle
