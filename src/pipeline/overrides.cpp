#include "pipeline/overrides.hpp"

#include <stdexcept>

namespace qplacer {

const char *const kKnownSetKeys[] = {
    "targetUtil",
    "placer.maxIters",
    "placer.minIters",
    "placer.stopOverflow",
    "placer.freqForce",
    "placer.freqWeight",
    "placer.threads",
    "assigner.distance2",
    "assigner.detuningThresholdGHz",
    "legalizer.integration",
    "hotspot.adjacencyTolUm",
    "incremental.maxIters",
    "detailed.iters",
    "detailed.tempStart",
    "portfolio.seeds",
};

std::size_t
numKnownSetKeys()
{
    return sizeof(kKnownSetKeys) / sizeof(kKnownSetKeys[0]);
}

bool
isKnownSetKey(const std::string &key)
{
    for (std::size_t i = 0; i < numKnownSetKeys(); ++i)
        if (key == kKnownSetKeys[i])
            return true;
    return false;
}

void
applyOverrides(const Config &cfg, FlowParams &params)
{
    params.targetUtil = cfg.getDouble("targetUtil", params.targetUtil);

    PlacerParams &pp = params.placer;
    pp.maxIters = static_cast<int>(cfg.getInt("placer.maxIters", pp.maxIters));
    pp.minIters = static_cast<int>(cfg.getInt("placer.minIters", pp.minIters));
    pp.stopOverflow = cfg.getDouble("placer.stopOverflow", pp.stopOverflow);
    pp.freqForce = cfg.getBool("placer.freqForce", pp.freqForce);
    pp.freqWeight = cfg.getDouble("placer.freqWeight", pp.freqWeight);
    pp.threads = static_cast<int>(cfg.getInt("placer.threads", pp.threads));

    AssignerParams &ap = params.assigner;
    ap.distance2 = cfg.getBool("assigner.distance2", ap.distance2);

    CrosstalkRule &rule = params.crosstalk;
    rule.detuningThresholdHz =
        cfg.getDouble("assigner.detuningThresholdGHz",
                      rule.detuningThresholdHz / 1e9) *
        1e9;
    rule.adjacencyTolUm =
        cfg.getDouble("hotspot.adjacencyTolUm", rule.adjacencyTolUm);

    LegalizerParams &lp = params.legalizer;
    lp.integration = cfg.getBool("legalizer.integration", lp.integration);

    IncrementalPlaceParams &ip = params.incremental;
    ip.maxIters =
        static_cast<int>(cfg.getInt("incremental.maxIters", ip.maxIters));

    DetailedPlaceParams &dp = params.detailed;
    dp.iters = static_cast<int>(cfg.getInt("detailed.iters", dp.iters));
    dp.tempStart = cfg.getDouble("detailed.tempStart", dp.tempStart);

    PortfolioParams &fp = params.portfolio;
    fp.seeds = static_cast<int>(cfg.getInt("portfolio.seeds", fp.seeds));
}

std::string
checkOverrides(const Config &cfg)
{
    FlowParams scratch;
    try {
        applyOverrides(cfg, scratch);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return {};
}

} // namespace qplacer
