/**
 * @file
 * Serial vs. threaded placement kernels: the Poisson/DCT density engine
 * on Aspen-M (its placement's own 64x64 grid), Eagle-127 and a 1000+
 * qubit parametric grid, and the frequency force on Aspen-M and Eagle.
 *
 * For each density topology the driver splats the real netlist density
 * once, then times PoissonSolver::solve and the full
 * DensityModel::evaluate. For each force topology it times
 * FreqForceModel::evaluate at the warm start and after 200 Nesterov
 * iterations. Every kernel runs at 1, 2, 4, and 8 threads, and the
 * driver fails unless every thread count reproduces the serial field
 * maps and gradients bit for bit (memcmp). Results go to stdout and a
 * CSV (first argv, default parallel_density.csv; one row per kernel,
 * workload and thread count) for the nightly CI artifact trail.
 *
 * Environment overrides:
 *   QP_BENCH_REPS  solves per timing sample (default 20)
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/density.hpp"
#include "core/freq_force.hpp"
#include "core/poisson.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

using namespace qplacer;

namespace {

/** memcmp equality: same bits, not merely same values. */
template <class T>
bool
sameBits(const std::vector<T> &a, const std::vector<T> &b)
{
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(),
                                     a.size() * sizeof(T)) == 0);
}

/** One CSV row: a kernel's mean time at a thread count. */
void
writeRow(CsvWriter &csv, const char *kernel, const std::string &topology,
         const char *snapshot, const Netlist &netlist, int qubits, int bins,
         int threads, int reps, double ms, double speedup)
{
    csv.row({CsvWriter::cell(kernel), CsvWriter::cell(topology),
             CsvWriter::cell(snapshot),
             CsvWriter::cell(static_cast<long long>(qubits)),
             CsvWriter::cell(static_cast<long long>(netlist.numInstances())),
             CsvWriter::cell(static_cast<long long>(bins)),
             CsvWriter::cell(static_cast<long long>(threads)),
             CsvWriter::cell(static_cast<long long>(reps)),
             CsvWriter::cell(ms), CsvWriter::cell(speedup)});
}

/**
 * Time FreqForceModel::evaluate on @p positions at 1, 2, 4 and 8
 * threads against a serial reference; false if any thread count
 * changes a bit.
 */
bool
benchFreqForce(CsvWriter &csv, const std::string &topology, int qubits,
               const char *snapshot, const Netlist &netlist,
               const std::vector<Vec2> &positions, const FlowParams &params,
               int reps)
{
    const double threshold = params.crosstalk.detuningThresholdHz;
    const double cutoff = FreqForceModel::kCutoffFactor;
    const FreqForceModel serial(netlist, threshold, cutoff);
    std::vector<Vec2> reference;
    serial.evaluate(positions, reference);

    double serial_ms = 0.0;
    for (const int threads : {1, 2, 4, 8}) {
        ThreadPool pool(threads);
        const FreqForceModel model(netlist, threshold, cutoff,
                                   threads > 1 ? &pool : nullptr);
        std::vector<Vec2> gradient;
        model.evaluate(positions, gradient); // warm-up
        const bool same = sameBits(gradient, reference);
        Timer timer;
        for (int r = 0; r < reps; ++r)
            model.evaluate(positions, gradient);
        const double ms = timer.millis() / reps;
        if (threads == 1)
            serial_ms = ms;
        std::printf("   %-10s %d thread%s: evaluate %8.3f ms (%.2fx)\n",
                    snapshot, threads, threads == 1 ? " " : "s", ms,
                    serial_ms / ms);
        if (!same) {
            std::printf("FAIL: %d-thread frequency force differs from "
                        "serial\n",
                        threads);
            return false;
        }
        writeRow(csv, "freq_force_evaluate", topology, snapshot, netlist,
                 qubits, 0, threads, reps, ms, serial_ms / ms);
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string csv_path =
        argc > 1 ? argv[1] : "parallel_density.csv";
    const int reps =
        static_cast<int>(Config::envInt("QP_BENCH_REPS", 20));

    CsvWriter csv(csv_path);
    csv.header({"kernel", "topology", "snapshot", "qubits", "instances",
                "bins", "threads", "reps", "ms", "speedup"});

    bench::banner("parallel density engine: serial vs. threaded");
    for (const bench::SpectralWorkload &wl : bench::spectralWorkloads()) {
        const bench::SpectralInstance prepared = bench::prepare(wl);
        const Netlist &netlist = prepared.netlist;
        const std::vector<Vec2> &positions = prepared.positions;
        const std::vector<double> &density = prepared.density;

        std::printf("-- %s: %d qubits, %d instances, %dx%d bins\n",
                    wl.name.c_str(), wl.topo.numQubits(),
                    netlist.numInstances(), wl.bins, wl.bins);

        // Serial references (thread count 1, no pool at all).
        const PoissonSolver serial_solver(
            wl.bins, wl.bins, netlist.region().width(),
            netlist.region().height());
        PoissonSolver::Solution reference;
        serial_solver.solve(density, reference);
        DensityModel serial_model(netlist, wl.bins);
        std::vector<Vec2> reference_gradient;
        serial_model.evaluate(positions, reference_gradient);

        double serial_solve_ms = 0.0;
        double serial_eval_ms = 0.0;
        for (const int threads : {1, 2, 4, 8}) {
            ThreadPool pool(threads);
            ThreadPool *pool_ptr = threads > 1 ? &pool : nullptr;
            const PoissonSolver solver(wl.bins, wl.bins,
                                       netlist.region().width(),
                                       netlist.region().height(),
                                       pool_ptr);

            PoissonSolver::Solution sol;
            solver.solve(density, sol); // warm-up
            const bool same_solve = sameBits(sol.fieldX, reference.fieldX) &&
                                    sameBits(sol.fieldY, reference.fieldY);

            Timer solve_timer;
            for (int r = 0; r < reps; ++r)
                solver.solve(density, sol);
            const double solve_ms = solve_timer.millis() / reps;

            DensityModel model(netlist, wl.bins, pool_ptr);
            std::vector<Vec2> gradient;
            model.evaluate(positions, gradient); // warm-up
            const bool same_gradient = sameBits(gradient, reference_gradient);
            Timer eval_timer;
            for (int r = 0; r < reps; ++r)
                model.evaluate(positions, gradient);
            const double eval_ms = eval_timer.millis() / reps;

            if (threads == 1) {
                serial_solve_ms = solve_ms;
                serial_eval_ms = eval_ms;
            }
            const double solve_speedup = serial_solve_ms / solve_ms;
            const double eval_speedup = serial_eval_ms / eval_ms;

            std::printf("   %d thread%s: solve %8.3f ms (%.2fx)  "
                        "evaluate %8.3f ms (%.2fx)\n",
                        threads, threads == 1 ? " " : "s", solve_ms,
                        solve_speedup, eval_ms, eval_speedup);
            if (!same_solve || !same_gradient) {
                std::printf("FAIL: %d-thread %s differs from serial\n",
                            threads,
                            same_solve ? "density gradient" : "solve");
                return 1;
            }

            writeRow(csv, "poisson_solve", wl.name, "warm_start", netlist,
                     wl.topo.numQubits(), wl.bins, threads, reps, solve_ms,
                     solve_speedup);
            writeRow(csv, "density_evaluate", wl.name, "warm_start",
                     netlist, wl.topo.numQubits(), wl.bins, threads, reps,
                     eval_ms, eval_speedup);
        }
    }

    bench::banner("frequency force: serial vs. threaded");
    const FlowParams params;
    for (const char *name : {"Aspen-M", "Eagle"}) {
        const Topology topo = makeTopology(name);
        const FrequencyAssigner assigner(params.assigner, params.crosstalk);
        Netlist netlist = NetlistBuilder(params.partition)
                              .build(topo, assigner.assign(topo),
                                     params.targetUtil);
        std::printf("-- %s: %d qubits, %d instances\n", name,
                    topo.numQubits(), netlist.numInstances());
        std::vector<Vec2> positions;
        for (const Instance &inst : netlist.instances())
            positions.push_back(inst.pos);
        if (!benchFreqForce(csv, name, topo.numQubits(), "warm_start",
                            netlist, positions, params, reps))
            return 1;

        PlacerParams placer = params.placer;
        placer.threads = 1;
        placer.maxIters = 200;
        placer.minIters = 200;
        placer.stopOverflow = 0.0; // run the whole budget
        GlobalPlacer(placer, params.crosstalk).place(netlist);
        for (std::size_t i = 0; i < positions.size(); ++i)
            positions[i] = netlist.instances()[i].pos;
        if (!benchFreqForce(csv, name, topo.numQubits(), "iter_200",
                            netlist, positions, params, reps))
            return 1;
    }
    std::printf("CSV written to %s\n", csv_path.c_str());
    return 0;
}
