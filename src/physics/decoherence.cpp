#include "physics/decoherence.hpp"

#include <cmath>

#include "util/logging.hpp"

namespace qplacer {

DecoherenceModel::DecoherenceModel(double t1_s, double t2_s)
    : t1_(t1_s), t2_(t2_s)
{
    if (t1_s <= 0.0 || t2_s <= 0.0)
        fatal("DecoherenceModel: non-positive coherence time");
    rate_ = 1.0 / (2.0 * t1_) + 1.0 / (2.0 * t2_);
}

double
DecoherenceModel::errorOver(double duration_s) const
{
    if (duration_s < 0.0)
        panic("DecoherenceModel::errorOver: negative duration");
    return 1.0 - std::exp(-duration_s * rate_);
}

} // namespace qplacer
