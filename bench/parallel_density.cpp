/**
 * @file
 * Serial vs. threaded Poisson/DCT density engine on Eagle-127 and a
 * 1000+ qubit parametric grid.
 *
 * For each topology the driver splats the real netlist density once,
 * then times PoissonSolver::solve and the full DensityModel::evaluate
 * at 1, 2, 4, and 8 threads, failing unless every thread count
 * reproduces the serial field maps and density gradient bit for bit
 * (memcmp). Results go to stdout and a CSV
 * (first argv, default parallel_density.csv) for the nightly CI
 * artifact trail.
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

} // namespace

int
main(int argc, char **argv)
{
    const std::string csv_path =
        argc > 1 ? argv[1] : "parallel_density.csv";
    const int reps =
        static_cast<int>(Config::envInt("QP_BENCH_REPS", 20));

    CsvWriter csv(csv_path);
    csv.header({"topology", "qubits", "instances", "bins", "threads",
                "reps", "solve_ms", "solve_speedup", "evaluate_ms",
                "evaluate_speedup"});

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
        DensityModel serial_model(netlist, wl.bins, 0.9);
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

            DensityModel model(netlist, wl.bins, 0.9, pool_ptr);
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

            csv.row({CsvWriter::cell(wl.name),
                     CsvWriter::cell(
                         static_cast<long long>(wl.topo.numQubits())),
                     CsvWriter::cell(static_cast<long long>(
                         netlist.numInstances())),
                     CsvWriter::cell(static_cast<long long>(wl.bins)),
                     CsvWriter::cell(static_cast<long long>(threads)),
                     CsvWriter::cell(static_cast<long long>(reps)),
                     CsvWriter::cell(solve_ms),
                     CsvWriter::cell(solve_speedup),
                     CsvWriter::cell(eval_ms),
                     CsvWriter::cell(eval_speedup)});
        }
    }
    std::printf("CSV written to %s\n", csv_path.c_str());
    return 0;
}
