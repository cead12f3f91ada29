#include "pipeline/flow.hpp"

#include <algorithm>

namespace qplacer {

const char *
placerModeName(PlacerMode mode)
{
    switch (mode) {
      case PlacerMode::Qplacer:
        return "Qplacer";
      case PlacerMode::Classic:
        return "Classic";
      case PlacerMode::Human:
        return "Human";
    }
    return "?";
}

FlowParams
FlowParams::normalized(std::string &error) const
{
    FlowParams p = *this;
    error.clear();
    const auto check = [&](bool ok, const char *msg) {
        if (!ok && error.empty())
            error = msg;
    };

    check(targetUtil > 0.0 && targetUtil <= 1.0,
          "FlowParams: targetUtil must be in (0, 1]");
    check(partition.segmentUm > 0.0,
          "FlowParams: partition.segmentUm must be positive");
    check(partition.wireWidthUm > 0.0,
          "FlowParams: partition.wireWidthUm must be positive");
    check(partition.qubitPadUm >= 0.0 && partition.resonatorPadUm >= 0.0,
          "FlowParams: partition pads must be non-negative");
    check(placer.maxIters >= 1,
          "FlowParams: placer.maxIters must be at least 1");
    check(placer.minIters >= 0,
          "FlowParams: placer.minIters must be non-negative");
    check(placer.stopOverflow >= 0.0,
          "FlowParams: placer.stopOverflow must be non-negative");
    check(placer.jitterFrac >= 0.0,
          "FlowParams: placer.jitterFrac must be non-negative");
    check(placer.freqWeight >= 0.0,
          "FlowParams: placer.freqWeight must be non-negative");
    check(crosstalk.detuningThresholdHz > 0.0,
          "FlowParams: crosstalk.detuningThresholdHz must be positive");
    check(crosstalk.adjacencyTolUm >= 0.0,
          "FlowParams: crosstalk.adjacencyTolUm must be non-negative");
    check(assigner.qubitBand.span() > 0.0,
          "FlowParams: assigner.qubitBand must have positive span");
    check(assigner.resonatorBand.span() > 0.0,
          "FlowParams: assigner.resonatorBand must have positive span");
    check(incremental.maxIters >= 1,
          "FlowParams: incremental.maxIters must be at least 1");
    check(detailed.iters >= 0,
          "FlowParams: detailed.iters must be non-negative (0 = no-op)");
    check(detailed.tempStart >= 0.0,
          "FlowParams: detailed.tempStart must be non-negative");
    check(portfolio.seeds >= 1,
          "FlowParams: portfolio.seeds must be at least 1");
    check(portfolio.seeds <= 1 || mode != PlacerMode::Human,
          "FlowParams: portfolio.seeds > 1 requires qplacer|classic "
          "mode (the Human layout has no seed to race)");

    // minIters is a convergence floor under the iteration budget;
    // callers routinely lower only maxIters (quick runs, sweeps), so a
    // budget below the default floor implies a lowered floor, not a
    // configuration error.
    p.placer.minIters = std::min(p.placer.minIters, p.placer.maxIters);

    if (mode == PlacerMode::Classic) {
        // Classic: the same engine and hyper-parameters, minus every
        // frequency-aware ingredient (Section V-B).
        p.placer.freqForce = false;
        p.legalizer.resonanceCheck = false;
    }
    return p;
}

} // namespace qplacer
