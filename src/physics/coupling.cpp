#include "physics/coupling.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/logging.hpp"

namespace qplacer {

double
couplingStrength(double f1_hz, double f2_hz, double cp_ff, double c1_ff,
                 double c2_ff)
{
    if (f1_hz <= 0.0 || f2_hz <= 0.0)
        panic("couplingStrength: non-positive frequency");
    if (cp_ff < 0.0 || c1_ff <= 0.0 || c2_ff <= 0.0)
        panic("couplingStrength: invalid capacitance");
    const double denom =
        std::sqrt((c1_ff + cp_ff) * (c2_ff + cp_ff));
    return 0.5 * std::sqrt(f1_hz * f2_hz) * cp_ff / denom;
}

double
rabiAmplitude(double g_hz, double delta_hz)
{
    const double g2 = g_hz * g_hz;
    const double half_delta = delta_hz / 2.0;
    const double denom = g2 + half_delta * half_delta;
    if (denom <= 0.0)
        return 0.0;
    return g2 / denom;
}

double
rabiTransitionProb(double g_hz, double delta_hz, double t_s)
{
    if (t_s < 0.0)
        panic("rabiTransitionProb: negative time");
    const double half_delta = delta_hz / 2.0;
    const double omega =
        std::sqrt(g_hz * g_hz + half_delta * half_delta);
    const double phase = 2.0 * std::numbers::pi * omega * t_s;
    const double s = std::sin(phase);
    return rabiAmplitude(g_hz, delta_hz) * s * s;
}

double
worstCaseTransition(double g_hz, double delta_hz, double t_s)
{
    if (t_s < 0.0)
        panic("worstCaseTransition: negative time");
    const double half_delta = delta_hz / 2.0;
    const double omega =
        std::sqrt(g_hz * g_hz + half_delta * half_delta);
    const double phase = 2.0 * std::numbers::pi * omega * t_s;
    const double amp = rabiAmplitude(g_hz, delta_hz);
    if (phase >= std::numbers::pi / 2.0)
        return amp;
    const double s = std::sin(phase);
    return amp * s * s;
}

} // namespace qplacer
