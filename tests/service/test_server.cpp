/**
 * @file
 * PlacementServer loopback tests: the in-process transport drives the
 * same handleLine() surface the daemon exposes, checking the service
 * contract end to end -- concurrent jobs bitwise-identical to serial
 * single-job session runs, cancellation of queued and running jobs,
 * incremental re-place against a cached base, and the error paths a
 * long-lived daemon must answer instead of dying on.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "pipeline/session.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "topology/factory.hpp"
#include "topology/generators.hpp"

namespace qplacer {
namespace {

/** In-process client: sends lines, collects every response. */
class Loopback
{
  public:
    explicit Loopback(ServerOptions options = {})
        : server_(std::move(options))
    {
    }

    PlacementServer &server() { return server_; }

    /** handleLine() with this client's collecting sink. */
    bool
    send(const std::string &line)
    {
        return server_.handleLine(line, [this](const JsonValue &response) {
            std::lock_guard<std::mutex> lock(mu_);
            responses_.push_back(response);
        });
    }

    /** Snapshot of everything received so far. */
    std::vector<JsonValue>
    responses() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return responses_;
    }

    /** The "result" response for @p id; fails the test when absent. */
    JsonValue
    resultFor(const std::string &id) const
    {
        for (const JsonValue &r : responses()) {
            const JsonValue *type = r.find("type");
            const JsonValue *rid = r.find("id");
            if (type && type->asString() == "result" && rid &&
                rid->asString() == id)
                return r;
        }
        ADD_FAILURE() << "no result for job '" << id << "'";
        return JsonValue::null();
    }

    /** Count of responses with the given type (and id, when set). */
    int
    count(const std::string &type, const std::string &id = "") const
    {
        int n = 0;
        for (const JsonValue &r : responses()) {
            const JsonValue *t = r.find("type");
            const JsonValue *rid = r.find("id");
            if (t && t->asString() == type &&
                (id.empty() || (rid && rid->asString() == id)))
                ++n;
        }
        return n;
    }

    /** Spin until @p pred on the response snapshot holds (or 30 s). */
    bool
    waitFor(const std::function<bool(const std::vector<JsonValue> &)> &pred)
    {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (std::chrono::steady_clock::now() < deadline) {
            if (pred(responses()))
                return true;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        return false;
    }

  private:
    PlacementServer server_;
    mutable std::mutex mu_;
    std::vector<JsonValue> responses_;
};

std::string
submitLine(const std::string &id, const std::string &topology,
           std::uint64_t seed, int max_iters,
           const std::string &extra = "")
{
    return "{\"type\":\"submit\",\"id\":\"" + id + "\",\"topology\":\"" +
           topology + "\",\"seed\":" + std::to_string(seed) +
           ",\"set\":{\"placer.maxIters\":" + std::to_string(max_iters) +
           "},\"layout\":true" + extra + "}";
}

/** Serial reference for the bitwise contract: a lone run, 1 thread. */
std::string
serialLayout(const Topology &topo, std::uint64_t seed, int max_iters)
{
    FlowParams params;
    params.placer.seed = seed;
    params.placer.maxIters = max_iters;
    params.placer.threads = 1;
    const FlowResult r = PlacementSession().run(topo, params);
    EXPECT_TRUE(r.status.ok()) << r.status.message;
    return layoutJson(r.netlist).serialize();
}

TEST(Server, ConcurrentJobsBitwiseIdenticalToSerial)
{
    constexpr int kJobs = 8;
    constexpr int kIters = 60;

    ServerOptions options;
    options.workers = kJobs; // All jobs genuinely in flight at once.
    Loopback client(options);
    for (int j = 0; j < kJobs; ++j)
        EXPECT_TRUE(client.send(submitLine(
            "job" + std::to_string(j), "grid3x3",
            static_cast<std::uint64_t>(1 + j), kIters)));
    client.server().drain();

    const Topology topo = makeGrid(3, 3);
    for (int j = 0; j < kJobs; ++j) {
        const JsonValue result =
            client.resultFor("job" + std::to_string(j));
        const JsonValue *status = result.find("report")->find("status");
        ASSERT_EQ(status->find("code")->asString(), "ok");
        // Exact-literal serialization makes string equality bitwise
        // position equality.
        ASSERT_NE(result.find("layout"), nullptr);
        EXPECT_EQ(result.find("layout")->serialize(),
                  serialLayout(topo, static_cast<std::uint64_t>(1 + j),
                               kIters))
            << "job" << j;
    }
    EXPECT_EQ(client.server().jobsCompleted(), kJobs);
}

TEST(Server, SameSeedJobsOnOneWorkerGiveIdenticalLayouts)
{
    Loopback client; // One worker, reused for every job.
    for (int j = 0; j < 3; ++j)
        EXPECT_TRUE(client.send(
            submitLine("same" + std::to_string(j), "grid3x3", 5, 40)));
    client.server().drain();

    // Same seed through the same worker: identical layouts.
    const std::string first =
        client.resultFor("same0").find("layout")->serialize();
    for (int j = 1; j < 3; ++j)
        EXPECT_EQ(client.resultFor("same" + std::to_string(j))
                      .find("layout")
                      ->serialize(),
                  first);
}

TEST(Server, CancelRunningJob)
{
    Loopback client;
    // A job big enough to still be mid-placement when we cancel.
    EXPECT_TRUE(client.send(submitLine("slow", "grid5x5", 1, 4000,
                                       ",\"progress\":1")));
    ASSERT_TRUE(client.waitFor([](const std::vector<JsonValue> &rs) {
        for (const JsonValue &r : rs) {
            const JsonValue *e = r.find("event");
            if (e && e->asString() == "iteration")
                return true;
        }
        return false;
    }));
    EXPECT_TRUE(client.server().cancel("slow"));
    client.server().drain();

    const JsonValue result = client.resultFor("slow");
    EXPECT_EQ(result.find("report")
                  ->find("status")
                  ->find("code")
                  ->asString(),
              "cancelled");
    // A cancelled job produced no layout.
    EXPECT_EQ(result.find("layout"), nullptr);
}

TEST(Server, CancelQueuedJobNeverRuns)
{
    Loopback client; // One worker: the second job waits in the queue.
    EXPECT_TRUE(client.send(submitLine("first", "grid4x4", 1, 800)));
    EXPECT_TRUE(client.send(submitLine("second", "grid4x4", 2, 800)));
    EXPECT_TRUE(client.server().cancel("second"));
    client.server().drain();

    EXPECT_EQ(client.resultFor("second")
                  .find("report")
                  ->find("status")
                  ->find("code")
                  ->asString(),
              "cancelled");
    EXPECT_EQ(client.resultFor("first")
                  .find("report")
                  ->find("status")
                  ->find("code")
                  ->asString(),
              "ok");
    EXPECT_FALSE(client.server().cancel("second")); // Already gone.
}

TEST(Server, IncrementalEmptyDeltaReproducesPrior)
{
    Loopback client;
    EXPECT_TRUE(client.send(submitLine("base", "grid4x4", 3, 200)));
    client.server().drain();
    EXPECT_TRUE(client.send(submitLine("redo", "grid4x4", 3, 200,
                                       ",\"base\":\"base\"")));
    client.server().drain();

    const JsonValue redo = client.resultFor("redo");
    const JsonValue *report = redo.find("report");
    EXPECT_EQ(report->find("status")->find("code")->asString(), "ok");
    const JsonValue *inc = report->find("incremental");
    ASSERT_NE(inc, nullptr);
    EXPECT_TRUE(inc->find("reused_prior")->asBool());
    // Bitwise-identical to the base layout.
    EXPECT_EQ(redo.find("layout")->serialize(),
              client.resultFor("base").find("layout")->serialize());
}

TEST(Server, IncrementalSmallDeltaRelegalizes)
{
    Loopback client;
    EXPECT_TRUE(client.send(submitLine("base", "grid4x4", 3, 200)));
    client.server().drain();
    EXPECT_TRUE(client.send(
        submitLine("delta", "grid4x4", 3, 200,
                   ",\"base\":\"base\",\"dirty_qubits\":[0]")));
    client.server().drain();

    const JsonValue result = client.resultFor("delta");
    const JsonValue *report = result.find("report");
    EXPECT_EQ(report->find("status")->find("code")->asString(), "ok");
    EXPECT_TRUE(report->find("legal")->find("legal")->asBool());
    const JsonValue *inc = report->find("incremental");
    ASSERT_NE(inc, nullptr);
    EXPECT_FALSE(inc->find("reused_prior")->asBool());
    EXPECT_GT(inc->find("dirty")->asInt(), 0);
}

TEST(Server, UnknownBaseReportsError)
{
    Loopback client;
    EXPECT_TRUE(client.send(submitLine("orphan", "grid3x3", 1, 40,
                                       ",\"base\":\"never-ran\"")));
    client.server().drain();
    EXPECT_EQ(client.count("error", "orphan"), 1);
    EXPECT_EQ(client.count("result", "orphan"), 0);
}

TEST(Server, RejectsBadRequestsAndStaysUp)
{
    Loopback client;
    EXPECT_TRUE(client.send("this is not json"));
    EXPECT_TRUE(client.send(R"({"type":"submit","id":"x"})"));
    EXPECT_TRUE(client.send(
        R"({"type":"submit","id":"x","topology":"tesseract9"})"));
    // One dimension past the bound: a bad spec, answered at once in
    // place of the ack, never generated.
    EXPECT_TRUE(client.send(submitLine(
        "huge", "grid1x" + std::to_string(kMaxSpecDim + 1), 1, 40)));
    EXPECT_EQ(client.count("error"), 4);
    EXPECT_EQ(client.count("ack"), 0);
    EXPECT_TRUE(client.send(R"({"type":"ping"})"));
    EXPECT_EQ(client.count("pong"), 1);

    // Still healthy: a real job goes through.
    EXPECT_TRUE(client.send(submitLine("ok", "grid3x3", 1, 40)));
    client.server().drain();
    EXPECT_EQ(client.count("result", "ok"), 1);
}

TEST(Server, SubmitResolvesTheSpecItself)
{
    // Callers that skip handleLine (the throughput bench) get the same
    // answer: a bad spec is an error in place of the ack, a good one
    // is acked and runs.
    PlacementServer server;
    std::mutex mu;
    std::vector<JsonValue> responses;
    const ResponseSink sink = [&](const JsonValue &response) {
        std::lock_guard<std::mutex> lock(mu);
        responses.push_back(response);
    };
    SubmitRequest bad;
    bad.id = "bad";
    bad.topology = "tesseract9";
    EXPECT_FALSE(server.submit(bad, sink));
    SubmitRequest good;
    good.id = "good";
    good.topology = "grid3x3";
    EXPECT_TRUE(server.submit(good, sink));
    server.drain();

    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_EQ(responses[0].find("type")->asString(), "error");
    EXPECT_EQ(responses[0].find("id")->asString(), "bad");
    EXPECT_EQ(responses[1].find("type")->asString(), "ack");
    EXPECT_EQ(responses[2].find("type")->asString(), "result");
    EXPECT_EQ(responses[2].find("id")->asString(), "good");
    EXPECT_EQ(server.jobsCompleted(), 1);
}

TEST(Server, RejectsDuplicateActiveJobId)
{
    Loopback client;
    EXPECT_TRUE(client.send(submitLine("dup", "grid4x4", 1, 800)));
    EXPECT_TRUE(client.send(submitLine("dup", "grid4x4", 1, 800)));
    client.server().drain();
    EXPECT_EQ(client.count("error", "dup"), 1);
    EXPECT_EQ(client.count("result", "dup"), 1);

    // A completed id may be reused; the new layout replaces the prior.
    EXPECT_TRUE(client.send(submitLine("dup", "grid4x4", 2, 800)));
    client.server().drain();
    EXPECT_EQ(client.count("result", "dup"), 2);
}

TEST(Server, ConcurrentDuplicateIdsAdmitExactlyOne)
{
    // Two connections race the same id, many rounds over: admission
    // must ack exactly one and reject the other, and nothing may hang.
    // A blocker holds the only worker, so every raced job is still
    // queued when its twin arrives.
    constexpr int kRounds = 40;
    Loopback client;
    EXPECT_TRUE(client.send(
        R"({"type":"submit","id":"blocker","topology":"grid3x3",)"
        R"("set":{"placer.maxIters":1000000,"placer.minIters":1000000}})"));
    for (int round = 0; round < kRounds; ++round) {
        const std::string id = "race" + std::to_string(round);
        const std::string line = submitLine(id, "grid3x3", 1, 20);
        std::thread a([&] { client.send(line); });
        std::thread b([&] { client.send(line); });
        a.join();
        b.join();
        EXPECT_EQ(client.count("ack", id), 1) << id;
        int duplicates = 0;
        for (const JsonValue &r : client.responses()) {
            const JsonValue *rid = r.find("id");
            const JsonValue *msg = r.find("message");
            if (rid && rid->asString() == id && msg &&
                msg->asString().find("already queued or running") !=
                    std::string::npos)
                ++duplicates;
        }
        EXPECT_EQ(duplicates, 1) << id;
    }
    EXPECT_TRUE(client.server().cancel("blocker"));
    client.server().drain();
    for (int round = 0; round < kRounds; ++round)
        EXPECT_EQ(client.count("result", "race" + std::to_string(round)),
                  1);
}

TEST(Server, PingCancelErrorsAndShutdown)
{
    Loopback client;
    EXPECT_TRUE(client.send(R"({"type":"ping"})"));
    EXPECT_EQ(client.count("pong"), 1);
    EXPECT_TRUE(client.send(R"({"type":"cancel","id":"ghost"})"));
    EXPECT_EQ(client.count("error"), 1);

    EXPECT_TRUE(client.send(submitLine("last", "grid3x3", 1, 40)));
    // shutdown drains, answers bye, and tells the transport to stop.
    EXPECT_FALSE(client.send(R"({"type":"shutdown"})"));
    EXPECT_EQ(client.count("bye"), 1);
    EXPECT_EQ(client.count("result", "last"), 1);
}

TEST(Server, PriorStoreIsLruNotFifo)
{
    ServerOptions options;
    options.resultCacheCap = 3;
    Loopback client(options); // One worker: strict queue order.

    EXPECT_TRUE(client.send(submitLine("base", "grid3x3", 3, 60)));
    // Churn rounds: every round captures two new priors (the unrelated
    // job and the incremental job itself) while re-using "base". Under
    // FIFO eviction the cap-3 store drops "base" in the second round
    // even though it is the hottest entry; promote-on-use (LRU) keeps
    // it resident through arbitrary churn.
    for (int round = 0; round < 4; ++round) {
        EXPECT_TRUE(client.send(submitLine(
            "churn" + std::to_string(round), "grid3x3",
            static_cast<std::uint64_t>(10 + round), 60)));
        EXPECT_TRUE(client.send(submitLine("use" + std::to_string(round),
                                           "grid3x3", 3, 60,
                                           ",\"base\":\"base\"")));
    }
    client.server().drain();

    EXPECT_EQ(client.count("error"), 0);
    for (int round = 0; round < 4; ++round) {
        const JsonValue result =
            client.resultFor("use" + std::to_string(round));
        const JsonValue *report = result.find("report");
        EXPECT_EQ(report->find("status")->find("code")->asString(), "ok");
        const JsonValue *inc = report->find("incremental");
        ASSERT_NE(inc, nullptr);
        EXPECT_TRUE(inc->find("reused_prior")->asBool())
            << "round " << round;
    }
}

TEST(Server, PortfolioSubmitReportsWinnerBitwise)
{
    constexpr int kIters = 100;
    Loopback client;
    EXPECT_TRUE(client.send(submitLine(
        "folio", "grid3x3", 1, kIters, ",\"portfolio\":{\"seeds\":3}")));
    client.server().drain();

    const JsonValue result = client.resultFor("folio");
    const JsonValue *report = result.find("report");
    ASSERT_EQ(report->find("status")->find("code")->asString(), "ok");
    const JsonValue *portfolio = report->find("portfolio");
    ASSERT_NE(portfolio, nullptr);
    EXPECT_EQ(portfolio->find("seeds")->asInt(), 3);
    const std::uint64_t winner_seed = static_cast<std::uint64_t>(
        portfolio->find("winner_seed")->asInt());
    EXPECT_GE(winner_seed, 1u);
    EXPECT_LE(winner_seed, 3u);

    // The served layout is the winning candidate's, bitwise-identical
    // to a serial run of that seed.
    ASSERT_NE(result.find("layout"), nullptr);
    EXPECT_EQ(result.find("layout")->serialize(),
              serialLayout(makeGrid(3, 3), winner_seed, kIters));
}

TEST(Server, PortfolioThroughSetKeysAlone)
{
    // The "portfolio" object is only shorthand: portfolio.seeds in
    // "set" races the same candidates, and also excludes "base".
    constexpr int kIters = 100;
    Loopback client;
    EXPECT_TRUE(client.send(
        "{\"type\":\"submit\",\"id\":\"setfolio\",\"topology\":"
        "\"grid3x3\",\"seed\":1,\"set\":{\"placer.maxIters\":" +
        std::to_string(kIters) +
        ",\"portfolio.seeds\":3},\"layout\":true}"));
    client.server().drain();

    const JsonValue result = client.resultFor("setfolio");
    const JsonValue *report = result.find("report");
    ASSERT_EQ(report->find("status")->find("code")->asString(), "ok");
    const JsonValue *portfolio = report->find("portfolio");
    ASSERT_NE(portfolio, nullptr);
    EXPECT_EQ(portfolio->find("seeds")->asInt(), 3);
    const std::uint64_t winner_seed = static_cast<std::uint64_t>(
        portfolio->find("winner_seed")->asInt());
    ASSERT_NE(result.find("layout"), nullptr);
    EXPECT_EQ(result.find("layout")->serialize(),
              serialLayout(makeGrid(3, 3), winner_seed, kIters));

    EXPECT_TRUE(client.send(
        "{\"type\":\"submit\",\"id\":\"both\",\"topology\":"
        "\"grid3x3\",\"base\":\"setfolio\",\"set\":"
        "{\"portfolio.seeds\":2}}"));
    client.server().drain();
    EXPECT_EQ(client.count("error", "both"), 1);
    EXPECT_EQ(client.count("result", "both"), 0);
}

TEST(Server, PortfolioAndBaseAreMutuallyExclusive)
{
    Loopback client;
    EXPECT_TRUE(client.send(submitLine("base", "grid3x3", 1, 40)));
    client.server().drain();
    EXPECT_TRUE(client.send(submitLine(
        "both", "grid3x3", 1, 40,
        ",\"base\":\"base\",\"portfolio\":{\"seeds\":2}")));
    client.server().drain();
    EXPECT_EQ(client.count("error", "both"), 1);
    EXPECT_EQ(client.count("result", "both"), 0);
}

TEST(Server, ProgressStreamingHonorsProgressEvery)
{
    Loopback client;
    EXPECT_TRUE(client.send(submitLine("silent", "grid3x3", 1, 60)));
    EXPECT_TRUE(client.send(submitLine("stages", "grid3x3", 1, 60,
                                       ",\"progress\":0")));
    client.server().drain();

    EXPECT_EQ(client.count("progress", "silent"), 0);
    // Stage events only: begin+end per stage, no iteration events.
    EXPECT_GE(client.count("progress", "stages"), 2 * 5);
    for (const JsonValue &r : client.responses()) {
        const JsonValue *e = r.find("event");
        ASSERT_TRUE(!e || e->asString() != "iteration");
    }
}

} // namespace
} // namespace qplacer
