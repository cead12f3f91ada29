/**
 * @file
 * qplacer_cli: command-line driver for the Fig. 7 end-to-end flow.
 *
 * Builds a topology (paper device or parametric spec), runs the chosen
 * placement mode, and emits metrics (stdout + optional CSV) and artifacts
 * (SVG schematic, plain-text layout).
 *
 * Examples:
 *   qplacer_cli --topology Falcon --csv falcon.csv --svg falcon.svg
 *   qplacer_cli --topology grid3x3 --mode classic --seed 7
 *   qplacer_cli --topology heavyhex3x9 --set placer.maxIters=300
 *   qplacer_cli --topology grid8x8 --jobs 8 --report json --quiet
 */

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "qplacer.hpp"
#include "util/config.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace qplacer {
namespace {

/** Output format selected with --report. */
enum class ReportFormat { Table, Json };

struct CliOptions
{
    std::string topology = "Falcon";
    PlacerMode mode = PlacerMode::Qplacer;
    std::uint64_t seed = 1;
    int threads = 0;
    int jobs = 1;
    int workers = 0;
    double segmentUm = 300.0;
    Config overrides;
    std::string csvPath;
    std::string svgPath;
    std::string layoutPath;
    double svgScale = 0.05;
    ReportFormat report = ReportFormat::Table;
    bool listTopologies = false;
    bool quiet = false;
    bool help = false;
};

const char *kUsage =
    R"(qplacer_cli - frequency-aware quantum-chip placement driver

Usage: qplacer_cli [options]

Options:
  --topology SPEC     Device topology (default: Falcon). SPEC is either a
                      paper device (Grid, Xtree, Falcon, Eagle, Aspen-11,
                      Aspen-M) or a parametric spec: gridRxC (e.g. grid3x3),
                      heavyhexRxW, octagonRxC.
  --mode MODE         qplacer | classic | human (default: qplacer).
  --seed N            RNG seed for the placer (default: 1).
  --threads N         Worker threads for the placement hot path
                      (default 0 = hardware concurrency, capped; 1 =
                      serial). The thread count changes speed only: the
                      same seed reproduces the placement bit for bit.
  --jobs N            Place the topology N times with seeds seed..seed+N-1
                      through one PlacementSession (default: 1). Per-job
                      seeds wrap modulo 2^64: a base seed near
                      UINT64_MAX deterministically continues at 0, 1,
                      ... Jobs run concurrently (see --workers); each
                      job is placed single-threaded when jobs run
                      concurrently, and a batch reproduces N single
                      runs bit for bit.
  --workers M         Concurrent jobs for --jobs, or candidates for
                      --portfolio (default 0 = hardware concurrency,
                      capped; 1 = serial batch).
  --portfolio N       Multi-start portfolio: run the full flow for N
                      candidates seeded seed..seed+N-1 (wrapping mod
                      2^64) as one batch, and keep the winner's layout
                      (legal first, then lowest HPWL; default: 1 = plain
                      single-seed flow). Shorthand for --set
                      portfolio.seeds=N (the later of the two wins); add
                      --set detailed.iters=40 for 40 annealing sweeps
                      over every candidate.
                      Incompatible with --jobs > 1 and --mode human.
  --segment UM        Resonator segment size l_b in um (default: 300).
  --set KEY=VALUE     Override a flow parameter; repeatable. Keys:
)";

const char *kUsageTail =
    R"(  --csv PATH          Write a metrics CSV to PATH (one row per job).
  --svg PATH          Render the placed layout to PATH as SVG (--jobs 1).
  --layout PATH       Save instance positions ("id kind x y freq") to PATH
                      (--jobs 1).
  --svg-scale X       SVG pixels per um (default: 0.05).
  --report FORMAT     table (default) or json. json prints a machine-
                      readable FlowResult report (status, per-stage
                      seconds, HPWL, overflow, Ph%, area, fidelity) to
                      stdout; combine with --quiet for pure-JSON output.
  --list-topologies   Print the known topology names and exit.
  --quiet             Suppress status logging (errors still shown).
  --help              Show this message.
)";

/**
 * The usage text, with the --set key list printed from kKnownSetKeys
 * (comma-separated, wrapped under the option descriptions) so the help
 * can never drift from the keys the parser accepts.
 */
std::string
usage()
{
    const std::string indent(22, ' ');
    std::string text = kUsage;
    std::string line;
    for (std::size_t i = 0; i < numKnownSetKeys(); ++i) {
        std::string key = kKnownSetKeys[i];
        key += i + 1 < numKnownSetKeys() ? "," : ".";
        if (!line.empty() &&
            indent.size() + line.size() + 1 + key.size() > 78) {
            text += indent + line + "\n";
            line.clear();
        }
        line += (line.empty() ? "" : " ") + key;
    }
    return text + indent + line + "\n" + kUsageTail;
}

/** std::stod with a CLI-grade error message; rejects nan/inf. */
double
parseDouble(const std::string &value, const std::string &flag)
{
    try {
        std::size_t consumed = 0;
        const double v = std::stod(value, &consumed);
        if (consumed != value.size() || !std::isfinite(v))
            throw std::invalid_argument(value);
        return v;
    } catch (const std::exception &) {
        fatal("expected a finite number for " + flag + ", got '" + value +
              "'");
    }
}

/** parseDouble, additionally requiring a strictly positive value. */
double
parsePositiveDouble(const std::string &value, const std::string &flag)
{
    const double v = parseDouble(value, flag);
    if (v <= 0.0)
        fatal("expected a positive number for " + flag + ", got '" + value +
              "'");
    return v;
}

/** std::stoull with a CLI-grade error message. */
std::uint64_t
parseUint(const std::string &value, const std::string &flag)
{
    try {
        // std::stoull accepts and wraps a leading minus sign; reject it.
        if (value.empty() ||
            !std::isdigit(static_cast<unsigned char>(value[0])))
            throw std::invalid_argument(value);
        std::size_t consumed = 0;
        const std::uint64_t v = std::stoull(value, &consumed);
        if (consumed != value.size())
            throw std::invalid_argument(value);
        return v;
    } catch (const std::exception &) {
        fatal("expected a non-negative integer for " + flag + ", got '" +
              value + "'");
    }
}

std::string
toLower(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

/**
 * Resolve a topology spec through the shared factory helper
 * (resolveTopologySpec); unknown or malformed specs are a CLI error.
 */
Topology
resolveTopology(const std::string &spec)
{
    Topology topo;
    std::string error;
    if (!resolveTopologySpec(spec, topo, &error))
        fatal(error + " (see --list-topologies)");
    return topo;
}

PlacerMode
parseMode(const std::string &value)
{
    const std::string lower = toLower(value);
    if (lower == "qplacer")
        return PlacerMode::Qplacer;
    if (lower == "classic")
        return PlacerMode::Classic;
    if (lower == "human")
        return PlacerMode::Human;
    fatal("unknown mode '" + value + "' (expected qplacer|classic|human)");
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opts;
    auto need = [&](int &i, const std::string &flag) -> std::string {
        if (i + 1 >= argc)
            fatal("missing value for " + flag);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--topology") {
            opts.topology = need(i, arg);
        } else if (arg == "--mode") {
            opts.mode = parseMode(need(i, arg));
        } else if (arg == "--seed") {
            opts.seed = parseUint(need(i, arg), arg);
        } else if (arg == "--threads") {
            opts.threads = static_cast<int>(std::min<std::uint64_t>(
                parseUint(need(i, arg), arg), ThreadPool::kMaxThreads));
        } else if (arg == "--jobs") {
            const std::uint64_t jobs = parseUint(need(i, arg), arg);
            if (jobs == 0)
                fatal("--jobs must be at least 1");
            if (jobs > 100000)
                fatal("--jobs capped at 100000, got " +
                      std::to_string(jobs));
            opts.jobs = static_cast<int>(jobs);
        } else if (arg == "--workers") {
            opts.workers = static_cast<int>(std::min<std::uint64_t>(
                parseUint(need(i, arg), arg), ThreadPool::kMaxThreads));
        } else if (arg == "--portfolio") {
            const std::uint64_t seeds = parseUint(need(i, arg), arg);
            if (seeds == 0)
                fatal("--portfolio must be at least 1");
            if (seeds > 1024)
                fatal("--portfolio capped at 1024, got " +
                      std::to_string(seeds));
            // Shorthand for --set portfolio.seeds=N.
            opts.overrides.set("portfolio.seeds", std::to_string(seeds));
        } else if (arg == "--report") {
            const std::string format = toLower(need(i, arg));
            if (format == "table")
                opts.report = ReportFormat::Table;
            else if (format == "json")
                opts.report = ReportFormat::Json;
            else
                fatal("unknown --report format '" + format +
                      "' (expected table|json)");
        } else if (arg == "--segment") {
            opts.segmentUm = parsePositiveDouble(need(i, arg), arg);
        } else if (arg == "--set") {
            const std::string kv = need(i, arg);
            const auto eq = kv.find('=');
            if (eq == std::string::npos || eq == 0)
                fatal("--set expects KEY=VALUE, got '" + kv + "'");
            const std::string key = kv.substr(0, eq);
            if (!isKnownSetKey(key))
                fatal("unknown --set key '" + key + "' (see --help)");
            opts.overrides.set(key, kv.substr(eq + 1));
        } else if (arg == "--csv") {
            opts.csvPath = need(i, arg);
        } else if (arg == "--svg") {
            opts.svgPath = need(i, arg);
        } else if (arg == "--layout") {
            opts.layoutPath = need(i, arg);
        } else if (arg == "--svg-scale") {
            opts.svgScale = parsePositiveDouble(need(i, arg), arg);
        } else if (arg == "--list-topologies") {
            opts.listTopologies = true;
        } else if (arg == "--quiet") {
            opts.quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            opts.help = true;
        } else {
            fatal("unknown option '" + arg + "' (see --help)");
        }
    }
    return opts;
}

/**
 * Per-job seed: job i of a batch runs with base seed + i, wrapping
 * modulo 2^64. Unsigned overflow is well-defined, so a base seed near
 * UINT64_MAX deterministically continues at 0, 1, ... rather than
 * being implementation-defined; the boundary is covered by a smoke
 * test. Resolved seeds are pairwise distinct for any --jobs value the
 * cap admits (wrapping collides only after 2^64 jobs).
 */
std::uint64_t
jobSeed(const CliOptions &opts, std::size_t job)
{
    return opts.seed + static_cast<std::uint64_t>(job);
}

/**
 * The seed a report row names for a result: the winning candidate's
 * seed when a portfolio ran (the layout is that candidate's), the
 * batch job seed otherwise.
 */
std::uint64_t
reportSeed(const CliOptions &opts, std::size_t job, const FlowResult &r)
{
    return r.portfolioStats.portfolio ? r.portfolioStats.winnerSeed
                                      : jobSeed(opts, job);
}

void
writeMetricsCsv(const std::string &path, const Topology &topo,
                const CliOptions &opts,
                const std::vector<FlowResult> &results)
{
    CsvWriter csv(path);
    csv.header({"topology", "mode", "qubits", "couplers", "cells",
                "freq_slots", "iterations", "converged", "overflow", "hpwl_um",
                "legal", "qubit_disp_um", "segment_disp_um", "ph_percent",
                "impacted_qubits", "utilization", "amer_um2", "apoly_um2",
                "seconds", "seed", "status"});
    for (std::size_t job = 0; job < results.size(); ++job) {
        const FlowResult &result = results[job];
        csv.row(
            {CsvWriter::cell(topo.name),
             CsvWriter::cell(std::string(placerModeName(opts.mode))),
             CsvWriter::cell(static_cast<long long>(topo.numQubits())),
             CsvWriter::cell(static_cast<long long>(topo.numCouplers())),
             CsvWriter::cell(
                 static_cast<long long>(result.netlist.numInstances())),
             CsvWriter::cell(
                 static_cast<long long>(result.freqs.numQubitSlots)),
             CsvWriter::cell(static_cast<long long>(result.place.iterations)),
             CsvWriter::cell(static_cast<long long>(result.place.converged)),
             CsvWriter::cell(result.place.finalOverflow),
             CsvWriter::cell(result.place.finalHpwl),
             CsvWriter::cell(static_cast<long long>(result.legal.legal)),
             CsvWriter::cell(result.legal.qubitDisplacementUm),
             CsvWriter::cell(result.legal.segmentDisplacementUm),
             CsvWriter::cell(result.hotspots.phPercent),
             CsvWriter::cell(static_cast<long long>(
                 result.hotspots.impactedQubits.size())),
             CsvWriter::cell(result.area.utilization),
             CsvWriter::cell(result.area.amerUm2),
             CsvWriter::cell(result.area.apolyUm2),
             CsvWriter::cell(result.seconds()),
             // As a string: uint64 seeds overflow long long and lose
             // precision through double.
             CsvWriter::cell(std::to_string(reportSeed(opts, job, result))),
             CsvWriter::cell(
                 std::string(flowCodeName(result.status.code)))});
    }
}

/**
 * The fidelity proxy for --report json: the largest Bernstein-Vazirani
 * benchmark the device fits, averaged over a small fixed subset count
 * (matching the golden regressions). Devices under 4 qubits report
 * none.
 */
const char *
fidelityBenchmarkFor(const Topology &topo)
{
    if (topo.numQubits() >= 16)
        return "bv-16";
    if (topo.numQubits() >= 9)
        return "bv-9";
    if (topo.numQubits() >= 4)
        return "bv-4";
    return nullptr;
}

/**
 * This process's peak resident set in kB: VmHWM from
 * /proc/self/status, or nothing where that file cannot be read.
 */
std::optional<std::int64_t>
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtoll(line.c_str() + 6, nullptr, 10);
    return std::nullopt;
}

/**
 * Machine-readable flow report (--report json): the batch envelope of
 * the versioned qplacer.flow_report/1 schema around one jobReportJson
 * object per job, each with its bv fidelity proxy filled in.
 */
void
printReportJson(std::ostream &os, const Topology &topo,
                const CliOptions &opts, const std::vector<FlowResult> &results,
                double wall_seconds)
{
    const char *benchmark = fidelityBenchmarkFor(topo);
    EvaluatorParams eparams;
    eparams.numSubsets = 8;
    const Evaluator evaluator(eparams);
    // One circuit for the whole batch; only the mapping differs per
    // job (the placeholder is never evaluated).
    const Circuit circuit = benchmark != nullptr ? makeBenchmark(benchmark)
                                                 : Circuit(1, "none");

    JsonValue jobs = JsonValue::array();
    std::int64_t ok_jobs = 0;
    for (std::size_t job = 0; job < results.size(); ++job) {
        const FlowResult &r = results[job];
        ok_jobs += r.status.ok() ? 1 : 0;
        JsonValue entry = jobReportJson(r, reportSeed(opts, job, r));
        if (benchmark != nullptr && r.status.ok()) {
            const BenchmarkResult b =
                evaluator.evaluate(topo, r.netlist, r.hotspots, circuit);
            JsonValue fidelity = JsonValue::object();
            fidelity.set("benchmark", JsonValue::string(benchmark));
            fidelity.set("mean", JsonValue::number(b.meanFidelity));
            fidelity.set("min", JsonValue::number(b.minFidelity));
            fidelity.set("max", JsonValue::number(b.maxFidelity));
            entry.set("fidelity", std::move(fidelity));
        }
        jobs.push(std::move(entry));
    }

    const auto num_jobs = static_cast<std::int64_t>(results.size());
    JsonValue aggregate = JsonValue::object();
    aggregate.set("jobs", JsonValue::number(num_jobs));
    aggregate.set("ok", JsonValue::number(ok_jobs));
    aggregate.set("wall_seconds", JsonValue::number(wall_seconds));
    aggregate.set("placements_per_sec",
                  JsonValue::number(wall_seconds > 0.0
                                        ? static_cast<double>(num_jobs) /
                                              wall_seconds
                                        : 0.0));
    // Read last, after the fidelity evaluations: the program's own
    // high-water mark, not that of whatever launched it.
    if (const auto rss = peakRssKb())
        aggregate.set("peak_rss_kb", JsonValue::number(*rss));

    JsonValue report = JsonValue::object();
    report.set("schema", JsonValue::string("qplacer.flow_report/1"));
    report.set("topology", JsonValue::string(topo.name));
    report.set("mode", JsonValue::string(placerModeName(opts.mode)));
    report.set("qubits", JsonValue::number(
                             static_cast<std::int64_t>(topo.numQubits())));
    report.set("jobs", std::move(jobs));
    report.set("aggregate", std::move(aggregate));
    os << report.serialize() << "\n";
}

/** Compact one-row-per-job table for batch runs. */
void
printBatchSummary(const Topology &topo, const CliOptions &opts,
                  const std::vector<FlowResult> &results,
                  double wall_seconds)
{
    TextTable table;
    table.header({"seed", "status", "iters", "overflow", "HPWL (um)",
                  "legal", "Ph (%)", "util", "seconds"});
    for (std::size_t job = 0; job < results.size(); ++job) {
        const FlowResult &r = results[job];
        table.row({std::to_string(jobSeed(opts, job)),
                   flowCodeName(r.status.code),
                   TextTable::num(r.place.iterations, 0),
                   TextTable::num(r.place.finalOverflow, 4),
                   TextTable::num(r.place.finalHpwl, 1),
                   r.legal.legal ? "yes" : "no",
                   TextTable::num(r.hotspots.phPercent, 2),
                   TextTable::num(r.area.utilization, 4),
                   TextTable::num(r.seconds(), 2)});
    }
    std::cout << table.render();
    std::printf("%s: %zu jobs in %.2fs (%.2f placements/sec)\n",
                topo.name.c_str(), results.size(), wall_seconds,
                wall_seconds > 0.0
                    ? static_cast<double>(results.size()) / wall_seconds
                    : 0.0);
}

void
printSummary(const Topology &topo, const CliOptions &opts,
             const FlowResult &result)
{
    TextTable table;
    table.header({"metric", "value"});
    table.row({"topology", topo.name});
    table.row({"mode", placerModeName(opts.mode)});
    table.row({"qubits", TextTable::num(topo.numQubits(), 0)});
    table.row({"couplers", TextTable::num(topo.numCouplers(), 0)});
    table.row({"cells", TextTable::num(result.netlist.numInstances(), 0)});
    table.row({"freq slots", TextTable::num(result.freqs.numQubitSlots, 0)});
    if (opts.mode != PlacerMode::Human) {
        table.row({"iterations", TextTable::num(result.place.iterations, 0)});
        table.row({"overflow", TextTable::num(result.place.finalOverflow, 4)});
        table.row({"HPWL (um)", TextTable::num(result.place.finalHpwl, 1)});
        table.row({"legal", result.legal.legal ? "yes" : "no"});
        if (result.portfolioStats.portfolio) {
            table.row({"portfolio seeds",
                       TextTable::num(result.portfolioStats.seeds, 0)});
            table.row({"winner seed",
                       std::to_string(result.portfolioStats.winnerSeed)});
        }
        if (result.detailed.ran) {
            table.row({"detailed sweeps",
                       TextTable::num(result.detailed.sweeps, 0)});
            table.row({"detailed HPWL (um)",
                       TextTable::num(result.detailed.hpwlAfter, 1)});
        }
    }
    table.row({"P_h (%)", TextTable::num(result.hotspots.phPercent, 2)});
    table.row({"utilization", TextTable::num(result.area.utilization, 4)});
    table.row({"A_mer (um^2)", TextTable::num(result.area.amerUm2, 0)});
    table.row({"wall clock (s)", TextTable::num(result.seconds(), 2)});
    std::cout << table.render();
}

int
run(int argc, char **argv)
{
    const CliOptions opts = parseArgs(argc, argv);
    if (opts.help) {
        std::cout << usage();
        return 0;
    }
    if (opts.listTopologies) {
        for (const std::string &name : paperTopologyNames())
            std::cout << name << "\n";
        std::cout << "gridRxC heavyhexRxW octagonRxC (parametric)\n";
        return 0;
    }
    if (opts.quiet)
        Logger::instance().setLevel(LogLevel::Warn);

    const Topology topo = resolveTopology(opts.topology);

    FlowParams params;
    params.mode = opts.mode;
    params.partition.segmentUm = opts.segmentUm;
    params.placer.seed = opts.seed;
    params.placer.threads = opts.threads;
    applyOverrides(opts.overrides, params);

    // Surface bad --set combinations as a CLI error up front instead
    // of a per-job status after the (possibly long) run started.
    std::string params_error;
    params.normalized(params_error);
    if (!params_error.empty())
        fatal(params_error);

    if (opts.jobs > 1 &&
        (!opts.svgPath.empty() || !opts.layoutPath.empty()))
        fatal("--svg/--layout need a single layout; use --jobs 1");
    if (params.portfolio.seeds > 1 && opts.jobs > 1)
        fatal("--portfolio (portfolio.seeds) races seeds inside one job; "
              "use --jobs 1");

    PlacementSession session(opts.workers);

    Timer wall;
    std::vector<FlowResult> results;
    if (opts.jobs <= 1) {
        results.push_back(session.run(topo, params));
    } else {
        std::vector<FlowParams> batch(static_cast<std::size_t>(opts.jobs),
                                      params);
        for (std::size_t job = 0; job < batch.size(); ++job)
            batch[job].placer.seed = jobSeed(opts, job);
        results = session.runBatch(topo, batch);
    }
    const double wall_seconds = wall.seconds();

    // The CSV is a per-job report and carries a status column, so
    // failed jobs stay visible there; the layout artifacts, however,
    // must never materialize from a failed or cancelled run (a
    // file-existence check downstream would pick up a bogus layout).
    if (!opts.csvPath.empty())
        writeMetricsCsv(opts.csvPath, topo, opts, results);
    if (results.front().status.ok()) {
        if (!opts.svgPath.empty()) {
            SvgOptions svg;
            svg.scale = opts.svgScale;
            writeLayoutSvg(results.front().netlist, opts.svgPath, svg);
        }
        if (!opts.layoutPath.empty())
            saveLayout(results.front().netlist, opts.layoutPath);
    }

    if (opts.report == ReportFormat::Json) {
        printReportJson(std::cout, topo, opts, results, wall_seconds);
    } else if (!opts.quiet) {
        if (results.size() == 1)
            printSummary(topo, opts, results.front());
        else
            printBatchSummary(topo, opts, results, wall_seconds);
    }

    int rc = 0;
    for (std::size_t job = 0; job < results.size(); ++job) {
        const FlowStatus &status = results[job].status;
        if (!status.ok()) {
            std::cerr << "qplacer_cli: job " << job << " (seed "
                      << reportSeed(opts, job, results[job]) << ") "
                      << flowCodeName(status.code)
                      << (status.stage.empty() ? "" : " in stage ")
                      << status.stage << ": " << status.message << "\n";
            rc = 1;
        }
    }
    return rc;
}

} // namespace
} // namespace qplacer

int
main(int argc, char **argv)
{
    try {
        return qplacer::run(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "qplacer_cli: " << e.what() << "\n";
        return 1;
    }
}
