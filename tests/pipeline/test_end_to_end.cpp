/**
 * @file
 * End-to-end invariants: the paper's headline comparisons on one draw,
 * Falcon at seed 1, one test per claim. The seed-set form of the same
 * checks, on more devices, is `ctest -L paper` (test_paper_claims.cpp).
 */

#include <gtest/gtest.h>

#include <vector>

#include "paper_claims.hpp"
#include "pipeline/session.hpp"
#include "topology/factory.hpp"

namespace qplacer {
namespace {

using namespace paper_claims;

class EndToEnd : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        topo_ = new Topology(makeTopology("Falcon"));
        results_ = new std::vector<FlowResult>(PlacementSession().runBatch(
            *topo_, {job(PlacerMode::Qplacer, 1), job(PlacerMode::Classic, 1),
                     job(PlacerMode::Human, 1)}));
    }

    static void
    TearDownTestSuite()
    {
        delete topo_;
        delete results_;
    }

    void
    SetUp() override
    {
        for (const FlowResult &r : *results_)
            ASSERT_TRUE(r.status.ok()) << r.status.message;
    }

    static const FlowResult &qplacer() { return (*results_)[0]; }
    static const FlowResult &classic() { return (*results_)[1]; }
    static const FlowResult &human() { return (*results_)[2]; }

    static Topology *topo_;
    static std::vector<FlowResult> *results_;
};

Topology *EndToEnd::topo_ = nullptr;
std::vector<FlowResult> *EndToEnd::results_ = nullptr;

TEST_F(EndToEnd, HotspotProportionOrdering)
{
    expectHotspotOrdering(qplacer(), classic(), human());
}

TEST_F(EndToEnd, ImpactedQubitOrdering)
{
    expectImpactedQubitOrdering(qplacer(), classic(), human());
}

TEST_F(EndToEnd, AreaOrdering)
{
    expectAreaOrdering(qplacer(), classic(), human());
}

TEST_F(EndToEnd, FidelityOrdering)
{
    expectFidelityOrdering(bv4Of(*topo_, qplacer()), bv4Of(*topo_, classic()),
                           bv4Of(*topo_, human()));
}

TEST_F(EndToEnd, QplacerKeepsResonatorsIntegrated)
{
    expectResonatorsIntegrated(qplacer());
}

TEST_F(EndToEnd, SameMappingsSeenByAllPlacers)
{
    expectSameMappings(bv4Of(*topo_, qplacer()), bv4Of(*topo_, classic()),
                       bv4Of(*topo_, human()));
}

} // namespace
} // namespace qplacer
