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
    gradient.resize(positions.size());

    // For a 2-pin net the log-sum-exp wirelength reduces to the stable
    // closed form |d| + 2*gamma*log1p(exp(-|d|/gamma)) per axis, with
    // gradient tanh(d / (2*gamma)).
    auto axis = [this](double d) { return std::tanh(d / (2.0 * gamma_)); };

    const auto &nets = netlist_.nets();
    parallelScatter(
        pool_, nets.size(), std::span<Vec2>(gradient),
        [&](int, std::size_t begin, std::size_t end, Vec2 *g) {
            for (std::size_t i = begin; i < end; ++i) {
                const Net &net = nets[i];
                const Vec2 &pa = positions[net.a];
                const Vec2 &pb = positions[net.b];
                const double gx = axis(pa.x - pb.x);
                const double gy = axis(pa.y - pb.y);
                g[net.a].x += net.weight * gx;
                g[net.a].y += net.weight * gy;
                g[net.b].x -= net.weight * gx;
                g[net.b].y -= net.weight * gy;
            }
        },
        ThreadPool::kGrainMedium);
}

double
WirelengthModel::hpwl(const std::vector<Vec2> &positions) const
{
    const auto &nets = netlist_.nets();
    return parallelReduce(
        pool_, nets.size(),
        [&](std::size_t begin, std::size_t end) {
            double partial = 0.0;
            for (std::size_t i = begin; i < end; ++i) {
                const Net &net = nets[i];
                const Vec2 &pa = positions[net.a];
                const Vec2 &pb = positions[net.b];
                partial += net.weight * (std::abs(pa.x - pb.x) +
                                         std::abs(pa.y - pb.y));
            }
            return partial;
        },
        ThreadPool::kGrainMedium);
}

} // namespace qplacer
