#include "service/protocol.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "pipeline/overrides.hpp"
#include "util/logging.hpp"

namespace qplacer {

namespace {

bool
failParse(std::string *error, const std::string &message)
{
    if (error != nullptr)
        *error = message;
    return false;
}

/**
 * True if @p v is an integer representable as int. The range check
 * runs before any cast: static_cast<int> of an out-of-range double
 * is undefined behavior, so untrusted values must be vetted first.
 */
bool
isSmallNonNegativeInt(double v)
{
    return v >= 0.0 && v <= 2147483647.0 && std::floor(v) == v;
}

/** Non-negative integer from a Number literal (uint64 seeds). */
bool
parseSeed(const JsonValue &v, std::uint64_t &out)
{
    if (!v.isNumber())
        return false;
    const std::string &text = v.numberText();
    if (text.empty() || text[0] == '-')
        return false;
    errno = 0;
    char *end = nullptr;
    out = std::strtoull(text.c_str(), &end, 10);
    return errno == 0 && end != text.c_str() && *end == '\0';
}

bool
parseSubmit(const JsonValue &doc, Request &out, std::string *error)
{
    SubmitRequest &req = out.submit;
    req.id = out.id;

    const JsonValue *topology = doc.find("topology");
    if (!topology || !topology->isString() || topology->asString().empty())
        return failParse(error, "submit requires a string 'topology'");
    req.topology = topology->asString();

    if (const JsonValue *mode = doc.find("mode")) {
        if (!mode->isString())
            return failParse(error, "'mode' must be a string");
        const std::string &name = mode->asString();
        if (name == "qplacer")
            req.mode = PlacerMode::Qplacer;
        else if (name == "classic")
            req.mode = PlacerMode::Classic;
        else if (name == "human")
            req.mode = PlacerMode::Human;
        else
            return failParse(error, str("unknown mode '", name,
                                        "' (expected qplacer|classic|"
                                        "human)"));
    }

    if (const JsonValue *seed = doc.find("seed")) {
        if (!parseSeed(*seed, req.seed))
            return failParse(error,
                             "'seed' must be a non-negative integer");
    }

    if (const JsonValue *segment = doc.find("segment")) {
        if (!segment->isNumber() || !(segment->asDouble() > 0.0))
            return failParse(error, "'segment' must be a positive number");
        req.segmentUm = segment->asDouble();
    }

    if (const JsonValue *set = doc.find("set")) {
        if (!set->isObject())
            return failParse(error, "'set' must be an object");
        for (const JsonValue::Member &m : set->members()) {
            if (!isKnownSetKey(m.first))
                return failParse(error, str("unknown set key '", m.first,
                                            "' (see docs/PROTOCOL.md)"));
            // Config re-parses from text, so every scalar flattens to
            // its literal; getBool accepts 0/1/true/false.
            switch (m.second.kind()) {
            case JsonValue::Kind::String:
                req.set.set(m.first, m.second.asString());
                break;
            case JsonValue::Kind::Number:
                req.set.set(m.first, m.second.numberText());
                break;
            case JsonValue::Kind::Bool:
                req.set.set(m.first, m.second.asBool() ? "1" : "0");
                break;
            default:
                return failParse(error, str("set key '", m.first,
                                            "' must be a scalar"));
            }
        }
        // Reject malformed values before the ack, not on the worker.
        const std::string bad_value = checkOverrides(req.set);
        if (!bad_value.empty())
            return failParse(error, bad_value);
    }

    if (const JsonValue *progress = doc.find("progress")) {
        if (!progress->isNumber())
            return failParse(error,
                             "'progress' must be a non-negative integer");
        const double v = progress->asDouble();
        if (!isSmallNonNegativeInt(v))
            return failParse(error,
                             "'progress' must be a non-negative integer");
        req.progressEvery = static_cast<int>(v);
    }

    if (const JsonValue *deadline = doc.find("deadline_ms")) {
        if (!deadline->isNumber() || !(deadline->asDouble() > 0.0) ||
            !(deadline->asDouble() <= 1e9))
            return failParse(error, "'deadline_ms' must be a positive "
                                    "number of milliseconds (<= 1e9)");
        req.deadlineMs = deadline->asDouble();
    }

    if (const JsonValue *layout = doc.find("layout")) {
        if (!layout->isBool())
            return failParse(error, "'layout' must be a boolean");
        req.wantLayout = layout->asBool();
    }

    if (const JsonValue *base = doc.find("base")) {
        if (!base->isString() || base->asString().empty())
            return failParse(error,
                             "'base' must be a non-empty job id string");
        req.baseId = base->asString();
        if (req.mode == PlacerMode::Human)
            return failParse(
                error, "incremental re-place requires qplacer|classic mode");
    }

    // The portfolio object is shorthand for the portfolio.seeds set key
    // and overrides it; the server decides from the resolved value.
    if (const JsonValue *portfolio = doc.find("portfolio")) {
        if (!portfolio->isObject())
            return failParse(error, "'portfolio' must be an object");
        const JsonValue *seeds = portfolio->find("seeds");
        if (!seeds || !seeds->isNumber() ||
            !isSmallNonNegativeInt(seeds->asDouble()) ||
            seeds->asDouble() < 1.0)
            return failParse(error,
                             "'portfolio.seeds' must be a positive integer");
        req.set.set("portfolio.seeds",
                    std::to_string(static_cast<int>(seeds->asDouble())));
        for (const char *removed : {"prune_at", "keep_frac"}) {
            if (portfolio->find(removed))
                return failParse(error, str("'portfolio.", removed,
                                            "' was removed (no probe rungs)"));
        }
    }

    if (const JsonValue *dirty = doc.find("dirty_qubits")) {
        if (req.baseId.empty())
            return failParse(error,
                             "'dirty_qubits' requires a 'base' job id");
        if (!dirty->isArray())
            return failParse(error,
                             "'dirty_qubits' must be an array of qubit ids");
        for (const JsonValue &item : dirty->items()) {
            if (!item.isNumber())
                return failParse(
                    error, "'dirty_qubits' must be an array of qubit ids");
            const double v = item.asDouble();
            if (!isSmallNonNegativeInt(v))
                return failParse(
                    error, "'dirty_qubits' entries must be non-negative "
                           "integers");
            req.dirtyQubits.push_back(static_cast<int>(v));
        }
    }

    if (const JsonValue *dirty = doc.find("dirty_couplers")) {
        if (req.baseId.empty())
            return failParse(error,
                             "'dirty_couplers' requires a 'base' job id");
        if (!dirty->isArray())
            return failParse(error, "'dirty_couplers' must be an array of "
                                    "[qubit_a, qubit_b] pairs");
        for (const JsonValue &item : dirty->items()) {
            if (!item.isArray() || item.items().size() != 2)
                return failParse(error,
                                 "'dirty_couplers' must be an array of "
                                 "[qubit_a, qubit_b] pairs");
            int pair[2];
            for (int k = 0; k < 2; ++k) {
                const JsonValue &endp = item.items()[static_cast<
                    std::size_t>(k)];
                if (!endp.isNumber() ||
                    !isSmallNonNegativeInt(endp.asDouble()))
                    return failParse(
                        error, "'dirty_couplers' endpoints must be "
                               "non-negative integers");
                pair[k] = static_cast<int>(endp.asDouble());
            }
            req.dirtyCouplers.emplace_back(pair[0], pair[1]);
        }
    }
    return true;
}

} // namespace

bool
parseRequest(const std::string &line, Request &out, std::string *error)
{
    out = Request{};

    JsonValue doc;
    std::string parse_error;
    if (!parseJson(line, doc, &parse_error))
        return failParse(error, str("invalid JSON: ", parse_error));
    if (!doc.isObject())
        return failParse(error, "request must be a JSON object");

    // The id is extracted before type validation so even a bogus
    // request can be answered with the job it named.
    if (const JsonValue *id = doc.find("id")) {
        if (id->isString())
            out.id = id->asString();
    }

    const JsonValue *type = doc.find("type");
    if (!type || !type->isString())
        return failParse(error, "request requires a string 'type'");
    const std::string &name = type->asString();

    if (name == "ping") {
        out.type = Request::Type::Ping;
        return true;
    }
    if (name == "shutdown") {
        out.type = Request::Type::Shutdown;
        return true;
    }
    if (name == "cancel") {
        out.type = Request::Type::Cancel;
        if (out.id.empty())
            return failParse(error, "cancel requires a string 'id'");
        return true;
    }
    if (name == "submit") {
        out.type = Request::Type::Submit;
        if (out.id.empty())
            return failParse(error, "submit requires a string 'id'");
        return parseSubmit(doc, out, error);
    }
    return failParse(error, str("unknown request type '", name,
                                "' (expected submit|cancel|ping|"
                                "shutdown)"));
}

JsonValue
makeHello(int workers)
{
    JsonValue v = JsonValue::object();
    v.set("type", JsonValue::string("hello"));
    v.set("schema", JsonValue::string(kServeSchema));
    v.set("workers", JsonValue::number(static_cast<std::int64_t>(workers)));
    return v;
}

JsonValue
makeAck(const std::string &id)
{
    JsonValue v = JsonValue::object();
    v.set("type", JsonValue::string("ack"));
    v.set("id", JsonValue::string(id));
    return v;
}

JsonValue
makeError(const std::string &id, const std::string &message)
{
    JsonValue v = JsonValue::object();
    v.set("type", JsonValue::string("error"));
    if (!id.empty())
        v.set("id", JsonValue::string(id));
    v.set("message", JsonValue::string(message));
    return v;
}

JsonValue
makeErrorCode(const std::string &id, const std::string &code,
              const std::string &message)
{
    JsonValue v = makeError(id, message);
    v.set("code", JsonValue::string(code));
    return v;
}

JsonValue
makeOverloaded(const std::string &id, int queue_depth,
               double retry_after_ms)
{
    JsonValue v = makeErrorCode(
        id, "overloaded",
        str("queue is full (", queue_depth,
            " jobs waiting); retry after backoff"));
    v.set("queue_depth",
          JsonValue::number(static_cast<std::int64_t>(queue_depth)));
    v.set("retry_after_ms", JsonValue::number(retry_after_ms));
    return v;
}

JsonValue
makePong(int queue_depth, int active_jobs)
{
    JsonValue v = JsonValue::object();
    v.set("type", JsonValue::string("pong"));
    v.set("queue_depth",
          JsonValue::number(static_cast<std::int64_t>(queue_depth)));
    v.set("active_jobs",
          JsonValue::number(static_cast<std::int64_t>(active_jobs)));
    return v;
}

JsonValue
makeBye(int jobs)
{
    JsonValue v = JsonValue::object();
    v.set("type", JsonValue::string("bye"));
    v.set("jobs", JsonValue::number(static_cast<std::int64_t>(jobs)));
    return v;
}

JsonValue
makeStageBegin(const std::string &id, const std::string &stage)
{
    JsonValue v = JsonValue::object();
    v.set("type", JsonValue::string("progress"));
    v.set("id", JsonValue::string(id));
    v.set("event", JsonValue::string("stage_begin"));
    v.set("stage", JsonValue::string(stage));
    return v;
}

JsonValue
makeStageEnd(const std::string &id, const std::string &stage,
             double seconds)
{
    JsonValue v = JsonValue::object();
    v.set("type", JsonValue::string("progress"));
    v.set("id", JsonValue::string(id));
    v.set("event", JsonValue::string("stage_end"));
    v.set("stage", JsonValue::string(stage));
    v.set("seconds", JsonValue::number(seconds));
    return v;
}

JsonValue
makeIteration(const std::string &id, int iteration, double overflow,
              double hpwl)
{
    JsonValue v = JsonValue::object();
    v.set("type", JsonValue::string("progress"));
    v.set("id", JsonValue::string(id));
    v.set("event", JsonValue::string("iteration"));
    v.set("iteration",
          JsonValue::number(static_cast<std::int64_t>(iteration)));
    v.set("overflow", JsonValue::number(overflow));
    v.set("hpwl_um", JsonValue::number(hpwl));
    return v;
}

JsonValue
makeResult(const std::string &id, JsonValue report)
{
    JsonValue v = JsonValue::object();
    v.set("type", JsonValue::string("result"));
    v.set("id", JsonValue::string(id));
    v.set("report", std::move(report));
    return v;
}

JsonValue
jobReportJson(const FlowResult &r, std::uint64_t seed)
{
    JsonValue job = JsonValue::object();
    job.set("seed", JsonValue::numberLiteral(std::to_string(seed)));

    JsonValue status = JsonValue::object();
    status.set("code", JsonValue::string(flowCodeName(r.status.code)));
    status.set("stage", JsonValue::string(r.status.stage));
    status.set("message", JsonValue::string(r.status.message));
    job.set("status", std::move(status));

    // Every time below is read from the run's trace; a span that never
    // opened (a skipped or cancelled stage) reads 0.
    JsonValue stages = JsonValue::array();
    const int flow = r.trace.find(Trace::kRoot, kFlowSpan);
    for (const Trace::Node &node : r.trace.nodes()) {
        if (flow < 0 || node.parent != flow)
            continue;
        JsonValue s = JsonValue::object();
        s.set("stage", JsonValue::string(node.name));
        s.set("seconds", JsonValue::number(node.seconds));
        stages.push(std::move(s));
    }
    job.set("stages", std::move(stages));
    const auto span = [&r](const char *stage, const char *sub) {
        return JsonValue::number(r.trace.seconds({kFlowSpan, stage, sub}));
    };

    job.set("cells", JsonValue::number(
                         static_cast<std::int64_t>(r.netlist.numInstances())));
    job.set("freq_slots", JsonValue::number(static_cast<std::int64_t>(
                              r.freqs.numQubitSlots)));

    JsonValue assign_stages = JsonValue::object();
    for (const char *sub : {"interference", "qubit_color", "resonator_graph",
                            "resonator_color"})
        assign_stages.set(sub, span("assign", sub));
    JsonValue assign = JsonValue::object();
    assign.set("stages", std::move(assign_stages));
    job.set("assign", std::move(assign));

    JsonValue build_stages = JsonValue::object();
    for (const char *sub : {"segments", "instances", "warm_start", "finalize"})
        build_stages.set(sub, span("build", sub));
    JsonValue build = JsonValue::object();
    // flow_report/1 keeps this key; the build fill is serial, so it is
    // always 1.
    build.set("threads", JsonValue::number(std::int64_t{1}));
    build.set("stages", std::move(build_stages));
    job.set("build", std::move(build));

    JsonValue place = JsonValue::object();
    place.set("iterations", JsonValue::number(static_cast<std::int64_t>(
                                r.place.iterations)));
    place.set("converged", JsonValue::boolean(r.place.converged));
    place.set("cancelled", JsonValue::boolean(r.place.cancelled));
    place.set("overflow", JsonValue::number(r.place.finalOverflow));
    place.set("hpwl_um", JsonValue::number(r.place.finalHpwl));
    job.set("place", std::move(place));

    JsonValue legal_stages = JsonValue::object();
    legal_stages.set("spiral", span("legalize", "spiral"));
    // flow_report/1 keeps this key; the legalizer has no such stage,
    // so it is always 0.
    legal_stages.set("flow_refine", JsonValue::number(std::int64_t{0}));
    legal_stages.set("tetris", span("legalize", "tetris"));
    legal_stages.set("integration", span("legalize", "integration"));
    JsonValue legal = JsonValue::object();
    legal.set("legal", JsonValue::boolean(r.legal.legal));
    legal.set("qubit_disp_um",
              JsonValue::number(r.legal.qubitDisplacementUm));
    legal.set("segment_disp_um",
              JsonValue::number(r.legal.segmentDisplacementUm));
    legal.set("unintegrated", JsonValue::number(static_cast<std::int64_t>(
                                  r.legal.integration.unintegrated)));
    legal.set("stages", std::move(legal_stages));
    job.set("legal", std::move(legal));

    JsonValue area = JsonValue::object();
    area.set("amer_um2", JsonValue::number(r.area.amerUm2));
    area.set("apoly_um2", JsonValue::number(r.area.apolyUm2));
    area.set("utilization", JsonValue::number(r.area.utilization));
    job.set("area", std::move(area));

    JsonValue hotspots = JsonValue::object();
    hotspots.set("ph_percent", JsonValue::number(r.hotspots.phPercent));
    hotspots.set("pairs", JsonValue::number(static_cast<std::int64_t>(
                              r.hotspots.pairs.size())));
    hotspots.set("impacted_qubits",
                 JsonValue::number(static_cast<std::int64_t>(
                     r.hotspots.impactedQubits.size())));
    job.set("hotspots", std::move(hotspots));

    // The fidelity proxy needs circuit evaluation, which only the CLI
    // runs (it replaces this member); null keeps the job shape.
    job.set("fidelity", JsonValue::null());

    if (r.detailed.ran) {
        JsonValue det = JsonValue::object();
        det.set("sweeps", JsonValue::number(static_cast<std::int64_t>(
                              r.detailed.sweeps)));
        det.set("proposed", JsonValue::number(static_cast<std::int64_t>(
                                r.detailed.proposed)));
        det.set("accepted", JsonValue::number(static_cast<std::int64_t>(
                                r.detailed.accepted)));
        det.set("swaps", JsonValue::number(static_cast<std::int64_t>(
                             r.detailed.swaps)));
        det.set("relocates", JsonValue::number(static_cast<std::int64_t>(
                                 r.detailed.relocates)));
        det.set("hpwl_before_um", JsonValue::number(r.detailed.hpwlBefore));
        det.set("hpwl_after_um", JsonValue::number(r.detailed.hpwlAfter));
        det.set("collisions_before",
                JsonValue::number(static_cast<std::int64_t>(
                    r.detailed.collisionsBefore)));
        det.set("collisions_after",
                JsonValue::number(static_cast<std::int64_t>(
                    r.detailed.collisionsAfter)));
        det.set("seconds",
                JsonValue::number(r.trace.seconds({kFlowSpan, "detailed"})));
        job.set("detailed", std::move(det));
    }

    if (r.portfolioStats.portfolio) {
        const PortfolioStats &p = r.portfolioStats;
        JsonValue candidates = JsonValue::array();
        for (const PortfolioCandidate &c : p.candidates) {
            JsonValue cand = JsonValue::object();
            cand.set("seed",
                     JsonValue::numberLiteral(std::to_string(c.seed)));
            // flow_report/1 keeps the probe fields (and "rungs") at
            // their no-pruning values: every candidate runs in full.
            cand.set("pruned_at", JsonValue::number(std::int64_t{0}));
            cand.set("probe_overflow", JsonValue::number(1.0));
            cand.set("probe_hpwl_um", JsonValue::number(0.0));
            cand.set("ran_full", JsonValue::boolean(true));
            cand.set("final_hpwl_um", JsonValue::number(c.finalHpwl));
            cand.set("winner", JsonValue::boolean(c.winner));
            candidates.push(std::move(cand));
        }
        JsonValue portfolio = JsonValue::object();
        portfolio.set("seeds", JsonValue::number(static_cast<std::int64_t>(
                                   p.seeds)));
        portfolio.set("rungs", JsonValue::number(std::int64_t{0}));
        portfolio.set("winner_seed",
                      JsonValue::numberLiteral(std::to_string(p.winnerSeed)));
        portfolio.set("candidates", std::move(candidates));
        job.set("portfolio", std::move(portfolio));
    }

    if (r.multidie.active) {
        const CrossCutMetrics &m = r.multidie;
        JsonValue dies = JsonValue::array();
        for (std::size_t d = 0; d < m.dieInstances.size(); ++d) {
            JsonValue die = JsonValue::object();
            die.set("instances", JsonValue::number(static_cast<
                                     std::int64_t>(m.dieInstances[d])));
            die.set("utilization", JsonValue::number(m.dieUtilization[d]));
            dies.push(std::move(die));
        }
        JsonValue multidie = JsonValue::object();
        multidie.set("dies",
                     JsonValue::number(static_cast<std::int64_t>(m.dies)));
        multidie.set("crossing_couplers",
                     JsonValue::number(static_cast<std::int64_t>(
                         m.crossingCouplers)));
        multidie.set("crossing_wl_um",
                     JsonValue::number(m.crossingWirelengthUm));
        multidie.set("per_die", std::move(dies));
        job.set("multidie", std::move(multidie));
    }

    if (r.incremental.incremental) {
        JsonValue inc = JsonValue::object();
        inc.set("reused_prior", JsonValue::boolean(r.incremental.reusedPrior));
        inc.set("mapped", JsonValue::number(static_cast<std::int64_t>(
                              r.incremental.mappedInstances)));
        inc.set("fresh", JsonValue::number(static_cast<std::int64_t>(
                             r.incremental.freshInstances)));
        inc.set("dirty", JsonValue::number(static_cast<std::int64_t>(
                             r.incremental.dirtyInstances)));
        inc.set("movable", JsonValue::number(static_cast<std::int64_t>(
                               r.incremental.movableInstances)));
        job.set("incremental", std::move(inc));
    }

    job.set("seconds", JsonValue::number(r.seconds()));
    return job;
}

JsonValue
layoutJson(const Netlist &netlist)
{
    JsonValue out = JsonValue::array();
    for (const Instance &inst : netlist.instances()) {
        JsonValue row = JsonValue::array();
        row.push(JsonValue::number(static_cast<std::int64_t>(inst.id)));
        row.push(JsonValue::string(
            inst.kind == InstanceKind::Qubit ? "qubit" : "segment"));
        row.push(JsonValue::number(inst.pos.x));
        row.push(JsonValue::number(inst.pos.y));
        out.push(std::move(row));
    }
    return out;
}

} // namespace qplacer
