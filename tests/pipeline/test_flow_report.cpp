/**
 * @file
 * The qplacer.flow_report/1 job object: its ordered key set is pinned
 * (every path perfbench and other clients read included), every
 * reported time is at least the sum of the times nested inside it, and
 * a portfolio job's time is the whole job's.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "pipeline/overrides.hpp"
#include "pipeline/session.hpp"
#include "service/protocol.hpp"
#include "topology/factory.hpp"
#include "util/timer.hpp"

namespace qplacer {
namespace {

/**
 * One Falcon Qplacer job with the detailed stage and a two-seed
 * portfolio, so the report carries its optional sections too.
 */
FlowResult
falconPortfolioJob(FlowParams &params)
{
    Config cfg;
    cfg.set("detailed.iters", "40");
    cfg.set("portfolio.seeds", "2");
    cfg.set("placer.maxIters", "60");
    cfg.set("placer.threads", "1");
    applyOverrides(cfg, params);
    PlacementSession session;
    return session.run(makeTopology("Falcon"), params);
}

/**
 * Every key path of @p v in document order: "a.b" for members,
 * "a[]" for an array and "a[].b" for its elements' members, each path
 * listed once.
 */
void
collectPaths(const JsonValue &v, const std::string &prefix,
             std::vector<std::string> &out, std::set<std::string> &seen)
{
    const auto emit = [&](const std::string &path) {
        if (seen.insert(path).second)
            out.push_back(path);
    };
    if (v.isObject()) {
        for (const auto &[key, member] : v.members()) {
            const std::string path = prefix.empty() ? key : prefix + "." + key;
            emit(path);
            collectPaths(member, path, out, seen);
        }
    } else if (v.isArray()) {
        for (const JsonValue &item : v.items())
            collectPaths(item, prefix + "[]", out, seen);
    }
}

TEST(FlowReport, JobKeySetIsPinned)
{
    FlowParams params;
    const FlowResult r = falconPortfolioJob(params);
    ASSERT_TRUE(r.status.ok()) << r.status.message;

    std::vector<std::string> paths;
    std::set<std::string> seen;
    collectPaths(jobReportJson(r, params.placer.seed), "", paths, seen);

    const std::vector<std::string> expected = {
        "seed",
        "status",
        "status.code",
        "status.stage",
        "status.message",
        "stages",
        "stages[].stage",
        "stages[].seconds",
        "cells",
        "freq_slots",
        "assign",
        "assign.stages",
        "assign.stages.interference",
        "assign.stages.qubit_color",
        "assign.stages.resonator_graph",
        "assign.stages.resonator_color",
        "build",
        "build.threads",
        "build.stages",
        "build.stages.segments",
        "build.stages.instances",
        "build.stages.warm_start",
        "build.stages.finalize",
        "place",
        "place.iterations",
        "place.converged",
        "place.cancelled",
        "place.overflow",
        "place.hpwl_um",
        "legal",
        "legal.legal",
        "legal.qubit_disp_um",
        "legal.segment_disp_um",
        "legal.unintegrated",
        "legal.stages",
        "legal.stages.spiral",
        "legal.stages.flow_refine",
        "legal.stages.tetris",
        "legal.stages.integration",
        "area",
        "area.amer_um2",
        "area.apoly_um2",
        "area.utilization",
        "hotspots",
        "hotspots.ph_percent",
        "hotspots.pairs",
        "hotspots.impacted_qubits",
        "fidelity",
        "detailed",
        "detailed.sweeps",
        "detailed.proposed",
        "detailed.accepted",
        "detailed.swaps",
        "detailed.relocates",
        "detailed.hpwl_before_um",
        "detailed.hpwl_after_um",
        "detailed.collisions_before",
        "detailed.collisions_after",
        "detailed.seconds",
        "portfolio",
        "portfolio.seeds",
        "portfolio.rungs",
        "portfolio.winner_seed",
        "portfolio.candidates",
        "portfolio.candidates[].seed",
        "portfolio.candidates[].pruned_at",
        "portfolio.candidates[].probe_overflow",
        "portfolio.candidates[].probe_hpwl_um",
        "portfolio.candidates[].ran_full",
        "portfolio.candidates[].final_hpwl_um",
        "portfolio.candidates[].winner",
        "seconds",
    };
    EXPECT_EQ(paths, expected);
}

/** Sum of the members of @p job's object at @p section.stages. */
double
sumOfStages(const JsonValue &job, const char *section)
{
    double sum = 0.0;
    for (const auto &[key, seconds] :
         job.find(section)->find("stages")->members())
        sum += seconds.asDouble();
    return sum;
}

TEST(FlowReport, EveryTimeCoversTheTimesNestedInIt)
{
    FlowParams params;
    const FlowResult r = falconPortfolioJob(params);
    ASSERT_TRUE(r.status.ok()) << r.status.message;
    const JsonValue job = jobReportJson(r, params.placer.seed);

    std::string order;
    std::map<std::string, double> stage;
    double staged = 0.0;
    for (const JsonValue &s : job.find("stages")->items()) {
        const std::string &name = s.find("stage")->asString();
        order += name + " ";
        stage[name] = s.find("seconds")->asDouble();
        staged += stage[name];
    }
    EXPECT_EQ(order, "assign build place legalize detailed metrics ");
    for (const auto &[name, seconds] : stage)
        EXPECT_GT(seconds, 0.0) << name;

    EXPECT_GE(job.find("seconds")->asDouble(), staged);
    EXPECT_GE(stage["assign"], sumOfStages(job, "assign"));
    EXPECT_GE(stage["build"], sumOfStages(job, "build"));
    EXPECT_GE(stage["legalize"], sumOfStages(job, "legal"));
    EXPECT_GT(sumOfStages(job, "assign"), 0.0);
    EXPECT_GT(sumOfStages(job, "build"), 0.0);
    EXPECT_GT(sumOfStages(job, "legal"), 0.0);
    EXPECT_EQ(job.find("detailed")->find("seconds")->asDouble(),
              stage["detailed"]);
}

TEST(FlowReport, PortfolioJobSecondsAreItsWallClock)
{
    // Four seeds on one worker: the losing candidates' full runs take
    // most of the job, and run serially.
    FlowParams params;
    Config cfg;
    cfg.set("portfolio.seeds", "4");
    cfg.set("placer.threads", "1");
    applyOverrides(cfg, params);
    PlacementSession session(/*workers=*/1);
    Timer wall;
    const FlowResult r = session.run(makeTopology("Falcon"), params);
    const double wall_seconds = wall.seconds();
    ASSERT_TRUE(r.status.ok()) << r.status.message;
    const JsonValue job = jobReportJson(r, params.placer.seed);

    const double seconds = job.find("seconds")->asDouble();
    EXPECT_LE(seconds, wall_seconds);
    EXPECT_GE(seconds, 0.9 * wall_seconds);
    double staged = 0.0;
    for (const JsonValue &s : job.find("stages")->items())
        staged += s.find("seconds")->asDouble();
    EXPECT_GT(staged, 0.0);
    EXPECT_GT(seconds, staged) << "the other candidates' runs are missing";
}

} // namespace
} // namespace qplacer
