#include "core/wirelength.hpp"

#include <cmath>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace qplacer {

WirelengthModel::WirelengthModel(const Netlist &netlist, double gamma,
                                 ThreadPool *pool)
    : netlist_(netlist), gamma_(gamma), pool_(pool)
{
    if (gamma <= 0.0)
        fatal("WirelengthModel: gamma must be positive");

    // Incident-net lists by counting sort; filling them in net order
    // (a end before b end) leaves every list in net order.
    const auto &nets = netlist.nets();
    pinStart_.assign(netlist.instances().size() + 1, 0);
    for (const Net &net : nets) {
        ++pinStart_[static_cast<std::size_t>(net.a) + 1];
        ++pinStart_[static_cast<std::size_t>(net.b) + 1];
    }
    for (std::size_t k = 1; k < pinStart_.size(); ++k)
        pinStart_[k] += pinStart_[k - 1];
    std::vector<std::size_t> fill(pinStart_.begin(), pinStart_.end() - 1);
    pins_.resize(2 * nets.size());
    for (std::size_t e = 0; e < nets.size(); ++e) {
        pins_[fill[static_cast<std::size_t>(nets[e].a)]++] = 2 * e;
        pins_[fill[static_cast<std::size_t>(nets[e].b)]++] = 2 * e + 1;
    }
}

void
WirelengthModel::setGamma(double gamma)
{
    if (gamma <= 0.0)
        fatal("WirelengthModel::setGamma: gamma must be positive");
    gamma_ = gamma;
}

void
WirelengthModel::evaluate(const std::vector<Vec2> &positions,
                          std::vector<Vec2> &gradient) const
{
    if (positions.size() + 1 != pinStart_.size())
        panic("WirelengthModel::evaluate: position count mismatch");
    gradient.resize(positions.size());

    // For a 2-pin net the log-sum-exp wirelength reduces to the stable
    // closed form |d| + 2*gamma*log1p(exp(-|d|/gamma)) per axis, with
    // gradient tanh(d / (2*gamma)).
    auto axis = [this](double d) { return std::tanh(d / (2.0 * gamma_)); };

    const auto &nets = netlist_.nets();
    netPull_.resize(nets.size());
    parallelFor(
        pool_, nets.size(),
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t e = begin; e < end; ++e) {
                const Net &net = nets[e];
                const Vec2 &pa = positions[net.a];
                const Vec2 &pb = positions[net.b];
                netPull_[e] = Vec2(net.weight * axis(pa.x - pb.x),
                                   net.weight * axis(pa.y - pb.y));
            }
        },
        ThreadPool::kGrainMedium);

    // Each instance sums its nets' pulls in net order, adding at its a
    // end and subtracting at its b end.
    parallelFor(
        pool_, positions.size(),
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t k = begin; k < end; ++k) {
                Vec2 g;
                for (std::size_t p = pinStart_[k]; p < pinStart_[k + 1];
                     ++p) {
                    const Vec2 &pull = netPull_[pins_[p] / 2];
                    if (pins_[p] % 2 == 0)
                        g += pull;
                    else
                        g -= pull;
                }
                gradient[k] = g;
            }
        },
        ThreadPool::kGrainMedium);
}

} // namespace qplacer
