#include "core/nesterov.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace qplacer {

double
largestNorm(const std::vector<Vec2> &gradient)
{
    double m2 = 0.0;
    bool any_nan = false;
    for (const Vec2 &g : gradient) {
        const double s = g.normSq();
        m2 = std::max(m2, s);
        any_nan |= std::isnan(s);
    }
    const bool filter = !any_nan && m2 > 1e-280 && m2 < 1e280;
    const double cut = m2 * (1.0 - 1e-9);
    double m = 0.0;
    for (const Vec2 &g : gradient) {
        if (!filter || g.normSq() >= cut)
            m = std::max(m, g.norm());
    }
    return m;
}

NesterovOptimizer::NesterovOptimizer(Rect region,
                                     std::vector<Vec2> half_sizes,
                                     double max_step_frac, ThreadPool *pool)
    : region_(region), halfSizes_(std::move(half_sizes)), pool_(pool)
{
    maxStep_ = max_step_frac *
               std::hypot(region.width(), region.height());
}

void
NesterovOptimizer::reset(const std::vector<Vec2> &initial)
{
    if (initial.size() != halfSizes_.size())
        panic("NesterovOptimizer::reset: size mismatch");
    x_ = initial;
    v_ = initial;
    clamp(x_);
    clamp(v_);
    theta_ = 1.0;
    alpha_ = 0.0;
    havePrev_ = false;
}

void
NesterovOptimizer::clamp(std::vector<Vec2> &positions) const
{
    parallelFor(
        pool_, positions.size(),
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                const Vec2 &h = halfSizes_[i];
                positions[i].x =
                    std::clamp(positions[i].x, region_.lo.x + h.x,
                               region_.hi.x - h.x);
                positions[i].y =
                    std::clamp(positions[i].y, region_.lo.y + h.y,
                               region_.hi.y - h.y);
            }
        },
        ThreadPool::kGrainFine);
}

void
NesterovOptimizer::step(const std::vector<Vec2> &gradient)
{
    if (gradient.size() != v_.size())
        panic("NesterovOptimizer::step: gradient size mismatch");

    const std::size_t n = v_.size();

    // Barzilai-Borwein step length from successive lookahead gradients.
    if (havePrev_) {
        double num = 0.0;
        double den = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const Vec2 ds = v_[i] - prevV_[i];
            const Vec2 dg = gradient[i] - prevG_[i];
            num += ds.normSq();
            den += ds.dot(dg);
        }
        if (den > 1e-16)
            alpha_ = num / den;
        // Otherwise keep the previous step length (curvature estimate
        // unavailable this iteration).
    }

    if (alpha_ <= 0.0) {
        // First iteration: normalize so the largest move is a small
        // fraction of the region.
        double gmax = 0.0;
        for (const Vec2 &g : gradient)
            gmax = std::max(gmax, std::max(std::abs(g.x), std::abs(g.y)));
        const double span =
            std::max(region_.width(), region_.height());
        alpha_ = gmax > 1e-16 ? 0.002 * span / gmax : 1.0;
    }

    // Cap the largest displacement at maxStep_.
    const double gmax = largestNorm(gradient);
    double alpha = alpha_;
    if (gmax * alpha > maxStep_)
        alpha = maxStep_ / gmax;

    prevV_ = v_;
    prevG_ = gradient;
    havePrev_ = true;

    // Nesterov update, into the scratch that then becomes x_.
    xNew_.resize(n);
    parallelFor(
        pool_, n,
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                xNew_[i] = v_[i] - gradient[i] * alpha;
        },
        ThreadPool::kGrainFine);
    clamp(xNew_);

    const double theta_new =
        (1.0 + std::sqrt(1.0 + 4.0 * theta_ * theta_)) / 2.0;
    const double momentum = (theta_ - 1.0) / theta_new;
    parallelFor(
        pool_, n,
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                v_[i] = xNew_[i] + (xNew_[i] - x_[i]) * momentum;
        },
        ThreadPool::kGrainFine);
    clamp(v_);

    x_.swap(xNew_);
    theta_ = theta_new;
}

} // namespace qplacer
