/**
 * @file
 * Production-hardening tests over the in-process loopback: overload
 * shedding with structured backoff, per-job and default deadlines
 * reporting "deadline_exceeded", the shutdown-vs-submit race, load
 * reporting in pong, injected admission and capture failures, and
 * crash-safe prior persistence across a server restart.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "scratch_path.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/failpoint.hpp"

namespace qplacer {
namespace {

/** RAII teardown: no test may leak armed failpoints into the next. */
struct FailpointGuard
{
    FailpointGuard() { Failpoints::instance().disarmAll(); }
    ~FailpointGuard() { Failpoints::instance().disarmAll(); }
};

/** In-process client: sends lines, collects every response. */
class Loopback
{
  public:
    explicit Loopback(ServerOptions options = {})
        : server_(std::move(options))
    {
    }

    PlacementServer &server() { return server_; }

    bool
    send(const std::string &line)
    {
        return server_.handleLine(line, [this](const JsonValue &response) {
            std::lock_guard<std::mutex> lock(mu_);
            responses_.push_back(response);
        });
    }

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

    /** First "error" response for @p id; null when absent. */
    JsonValue
    errorFor(const std::string &id) const
    {
        for (const JsonValue &r : responses()) {
            const JsonValue *type = r.find("type");
            const JsonValue *rid = r.find("id");
            if (type && type->asString() == "error" && rid &&
                rid->asString() == id)
                return r;
        }
        return JsonValue::null();
    }

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

    /** Last "pong" response; fails the test when absent. */
    JsonValue
    lastPong() const
    {
        const auto all = responses();
        for (auto it = all.rbegin(); it != all.rend(); ++it) {
            const JsonValue *type = it->find("type");
            if (type && type->asString() == "pong")
                return *it;
        }
        ADD_FAILURE() << "no pong received";
        return JsonValue::null();
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

std::string
statusCode(const JsonValue &result)
{
    return result.find("report")
        ->find("status")
        ->find("code")
        ->asString();
}

TEST(Robustness, OverloadShedsWithStructuredBackoff)
{
    FailpointGuard guard;
    // Hold the single worker at pickup so the queue verifiably fills.
    ASSERT_TRUE(Failpoints::instance().arm("server.worker_pickup",
                                           "delay(400)"));
    ServerOptions options;
    options.workers = 1;
    options.maxQueue = 1;
    Loopback client(options);

    EXPECT_TRUE(client.send(submitLine("run", "grid3x3", 1, 40)));
    // Wait until the (delayed) worker owns "run" so the next submit
    // deterministically occupies the single queue slot.
    for (int i = 0; i < 200 && client.server().activeJobs() == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(client.server().activeJobs(), 1);
    EXPECT_TRUE(client.send(submitLine("wait", "grid3x3", 2, 40)));
    EXPECT_TRUE(client.send(submitLine("shed", "grid3x3", 3, 40)));
    Failpoints::instance().disarmAll();

    const JsonValue rejection = client.errorFor("shed");
    ASSERT_FALSE(rejection.isNull()) << "submit was not shed";
    EXPECT_EQ(rejection.find("code")->asString(), "overloaded");
    EXPECT_GE(rejection.find("queue_depth")->asInt(), 1);
    ASSERT_NE(rejection.find("retry_after_ms"), nullptr);
    EXPECT_GT(rejection.find("retry_after_ms")->asDouble(), 0.0);

    // The accepted jobs are unaffected by the shed one.
    client.server().drain();
    EXPECT_EQ(statusCode(client.resultFor("run")), "ok");
    EXPECT_EQ(statusCode(client.resultFor("wait")), "ok");
    EXPECT_EQ(client.count("result", "shed"), 0);
}

TEST(Robustness, PerJobDeadlineReportsDeadlineExceeded)
{
    Loopback client;
    // A job far larger than its 25 ms execution budget.
    EXPECT_TRUE(client.send(submitLine("late", "grid5x5", 1, 4000,
                                       ",\"deadline_ms\":25")));
    client.server().drain();

    const JsonValue result = client.resultFor("late");
    EXPECT_EQ(statusCode(result), "deadline_exceeded");
    EXPECT_EQ(result.find("layout"), nullptr);
    // A deadline is not a client cancel: the code is distinct.
    EXPECT_NE(statusCode(result), "cancelled");
}

TEST(Robustness, DefaultDeadlineAppliesWhenJobCarriesNone)
{
    ServerOptions options;
    options.defaultDeadlineMs = 25.0;
    Loopback client(options);
    EXPECT_TRUE(client.send(submitLine("late", "grid5x5", 1, 4000)));
    // A job under its deadline still completes normally.
    EXPECT_TRUE(client.send(submitLine("fast", "grid3x3", 1, 10,
                                       ",\"deadline_ms\":60000")));
    client.server().drain();

    EXPECT_EQ(statusCode(client.resultFor("late")), "deadline_exceeded");
    EXPECT_EQ(statusCode(client.resultFor("fast")), "ok");
}

TEST(Robustness, ClientCancelStillReportsCancelled)
{
    // Regression guard for the deadline rewrite: a *user* cancel of a
    // deadlined job that never hit its deadline stays "cancelled".
    Loopback client;
    EXPECT_TRUE(client.send(submitLine("slow", "grid5x5", 1, 4000,
                                       ",\"deadline_ms\":600000")));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_TRUE(client.server().cancel("slow"));
    client.server().drain();
    EXPECT_EQ(statusCode(client.resultFor("slow")), "cancelled");
}

TEST(Robustness, SubmitAfterShutdownIsSheddeterministically)
{
    Loopback client;
    EXPECT_TRUE(client.send(submitLine("before", "grid3x3", 1, 40)));
    EXPECT_FALSE(client.send(R"({"type":"shutdown"})"));
    EXPECT_EQ(client.count("bye"), 1);

    // The race fix: a submit landing after shutdown gets a structured
    // rejection, never a silently-dropped job.
    EXPECT_TRUE(client.send(submitLine("after", "grid3x3", 2, 40)));
    const JsonValue rejection = client.errorFor("after");
    ASSERT_FALSE(rejection.isNull());
    EXPECT_EQ(rejection.find("code")->asString(), "shutting_down");
    EXPECT_EQ(client.count("ack", "after"), 0);
    EXPECT_EQ(client.count("result", "after"), 0);
    EXPECT_EQ(client.count("result", "before"), 1);
}

TEST(Robustness, SubmitDuringShutdownDrainIsShed)
{
    FailpointGuard guard;
    ASSERT_TRUE(Failpoints::instance().arm("server.worker_pickup",
                                           "delay(300)"));
    Loopback client;
    EXPECT_TRUE(client.send(submitLine("busy", "grid3x3", 1, 40)));

    // Shutdown blocks in drain() while "busy" runs; a submit racing it
    // must shed, not enqueue behind the drain.
    std::thread closer(
        [&client] { client.send(R"({"type":"shutdown"})"); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_TRUE(client.send(submitLine("racer", "grid3x3", 2, 40)));
    closer.join();
    Failpoints::instance().disarmAll();

    const JsonValue rejection = client.errorFor("racer");
    ASSERT_FALSE(rejection.isNull());
    EXPECT_EQ(rejection.find("code")->asString(), "shutting_down");
    EXPECT_EQ(client.count("result", "busy"), 1);
    EXPECT_EQ(client.count("bye"), 1);
}

TEST(Robustness, PongReportsQueueDepthAndActiveJobs)
{
    FailpointGuard guard;
    Loopback client;
    EXPECT_TRUE(client.send(R"({"type":"ping"})"));
    {
        const JsonValue pong = client.lastPong();
        EXPECT_EQ(pong.find("queue_depth")->asInt(), 0);
        EXPECT_EQ(pong.find("active_jobs")->asInt(), 0);
    }

    ASSERT_TRUE(Failpoints::instance().arm("server.worker_pickup",
                                           "delay(300)"));
    EXPECT_TRUE(client.send(submitLine("busy", "grid3x3", 1, 40)));
    EXPECT_TRUE(client.send(R"({"type":"ping"})"));
    {
        // The job is either still queued or held at pickup; either
        // way the load is visible.
        const JsonValue pong = client.lastPong();
        EXPECT_EQ(pong.find("queue_depth")->asInt() +
                      pong.find("active_jobs")->asInt(),
                  1);
    }
    Failpoints::instance().disarmAll();
    client.server().drain();
    EXPECT_TRUE(client.send(R"({"type":"ping"})"));
    const JsonValue pong = client.lastPong();
    EXPECT_EQ(pong.find("queue_depth")->asInt(), 0);
    EXPECT_EQ(pong.find("active_jobs")->asInt(), 0);
}

TEST(Robustness, AdmissionFailpointInjectsUntilDisarmed)
{
    FailpointGuard guard;
    Loopback client;
    ASSERT_TRUE(
        Failpoints::instance().arm("server.queue_admission", "error"));

    // The armed site injects a structured admission failure.
    EXPECT_TRUE(client.send(submitLine("doomed", "grid3x3", 1, 40)));
    const JsonValue injected = client.errorFor("doomed");
    ASSERT_FALSE(injected.isNull());
    EXPECT_EQ(injected.find("code")->asString(), "injected");
    EXPECT_EQ(client.count("ack", "doomed"), 0);
    EXPECT_EQ(client.count("result", "doomed"), 0);

    // Disarming restores normal service.
    Failpoints::instance().disarm("server.queue_admission");
    EXPECT_TRUE(client.send(submitLine("fine", "grid3x3", 1, 40)));
    client.server().drain();
    EXPECT_EQ(statusCode(client.resultFor("fine")), "ok");
}

TEST(Robustness, InjectedCaptureFailureDegradesGracefully)
{
    FailpointGuard guard;
    Loopback client;
    ASSERT_TRUE(
        Failpoints::instance().arm("prior_store.capture", "error"));
    EXPECT_TRUE(client.send(submitLine("base", "grid3x3", 1, 40)));
    client.server().drain();
    Failpoints::instance().disarmAll();

    // The job itself succeeded; only the cached prior is missing, so
    // an incremental follow-up reports the usual unknown-base error.
    EXPECT_EQ(statusCode(client.resultFor("base")), "ok");
    EXPECT_TRUE(client.send(submitLine("redo", "grid3x3", 1, 40,
                                       ",\"base\":\"base\"")));
    client.server().drain();
    ASSERT_FALSE(client.errorFor("redo").isNull());
    EXPECT_EQ(client.count("result", "redo"), 0);
}

TEST(Robustness, PriorsSurviveServerRestartBitwise)
{
    ScratchPath dir;
    ServerOptions options;
    options.stateDir = dir.path;
    std::string baseLayout;
    {
        Loopback client(options);
        EXPECT_TRUE(client.send(submitLine("base", "grid4x4", 3, 200)));
        client.server().drain();
        const JsonValue result = client.resultFor("base");
        ASSERT_EQ(statusCode(result), "ok");
        baseLayout = result.find("layout")->serialize();
    }

    // A new server process (fresh PlacementServer) over the same state
    // directory: the acked prior is recoverable and an empty-delta
    // re-place reproduces it bitwise.
    Loopback restarted(options);
    EXPECT_EQ(restarted.server().priorStore().loadedFromDisk(), 1);
    EXPECT_TRUE(restarted.send(submitLine("redo", "grid4x4", 3, 200,
                                          ",\"base\":\"base\"")));
    restarted.server().drain();
    const JsonValue redo = restarted.resultFor("redo");
    ASSERT_EQ(statusCode(redo), "ok");
    const JsonValue *inc = redo.find("report")->find("incremental");
    ASSERT_NE(inc, nullptr);
    EXPECT_TRUE(inc->find("reused_prior")->asBool());
    EXPECT_EQ(redo.find("layout")->serialize(), baseLayout);
}

TEST(Robustness, DeadlineParseRejectsBadValues)
{
    Loopback client;
    EXPECT_TRUE(client.send(submitLine("neg", "grid3x3", 1, 40,
                                       ",\"deadline_ms\":-5")));
    EXPECT_TRUE(client.send(submitLine("str", "grid3x3", 1, 40,
                                       ",\"deadline_ms\":\"soon\"")));
    EXPECT_EQ(client.count("error"), 2);
    EXPECT_EQ(client.count("ack"), 0);
}

/**
 * Submit one malformed "set" value. It must be answered with an error
 * before any ack, and the server must keep serving: a later ping is
 * answered and a well-formed job still runs. (A bad value that reached
 * the worker used to abort the whole process.)
 */
void
expectSetValueRejected(const std::string &key, const std::string &value)
{
    Loopback client;
    EXPECT_TRUE(client.send(
        R"({"type":"submit","id":"bad","topology":"grid3x3","set":{")" +
        key + R"(":)" + value + "}}"));
    EXPECT_FALSE(client.errorFor("bad").isNull()) << key << "=" << value;
    EXPECT_EQ(client.count("ack"), 0);

    EXPECT_TRUE(client.send(R"({"type":"ping"})"));
    client.lastPong();
    EXPECT_TRUE(client.send(submitLine("good", "grid3x3", 1, 10)));
    client.server().drain();
    EXPECT_EQ(statusCode(client.resultFor("good")), "ok");
}

TEST(Robustness, SetRejectsNonNumericInt)
{
    expectSetValueRejected("placer.maxIters", R"("abc")");
}

TEST(Robustness, SetRejectsNonBooleanBool)
{
    expectSetValueRejected("placer.freqForce", R"("maybe")");
}

TEST(Robustness, SetRejectsNan)
{
    expectSetValueRejected("placer.freqWeight", R"("nan")");
}

TEST(Robustness, SetRejectsInf)
{
    expectSetValueRejected("hotspot.adjacencyTolUm", R"("inf")");
}

TEST(Robustness, SetRejectsIntBeyondIntRange)
{
    // 2^32 + 1 used to truncate to 1 iteration.
    expectSetValueRejected("placer.maxIters", "4294967297");
}

} // namespace
} // namespace qplacer
