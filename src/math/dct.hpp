/**
 * @file
 * 1-D cosine/sine transforms built on the radix-2 FFT (Makhoul's method).
 *
 * These are the kernels behind the spectral Poisson solver used by the
 * electrostatic density force (ePlace-style):
 *
 *  - dct2:      X[k] = sum_n x[n] cos(pi*(n+0.5)*k/N)          (DCT-II)
 *  - idct2:     exact inverse of dct2 (i.e. a scaled DCT-III)
 *  - cosSeries: y[n] = c[0] + 2*sum_{k>=1} c[k] cos(pi*(n+0.5)*k/N)
 *  - sinSeries: y[n] = 2*sum_{k>=1} c[k] sin(pi*(n+0.5)*k/N)
 *
 * cosSeries evaluates a Neumann-boundary eigenfunction expansion on the
 * half-sample grid; sinSeries is its x-derivative counterpart (used for
 * the electric field). All lengths must be powers of two.
 *
 * The 1-D kernels here allocate workspaces per call and serve as the
 * reference implementations; the batched row/column passes execute
 * through the cached DctPlan (math/dct_plan, math/plan_cache), which
 * is bitwise-identical but reuses precomputed tables and scratch (the
 * plan-free passes live on as test oracles in tests/oracles).
 */

#ifndef QPLACER_MATH_DCT_HPP
#define QPLACER_MATH_DCT_HPP

#include <vector>

namespace qplacer {

class ThreadPool;

/** FFT-accelerated DCT/DST transform kit (static functions only). */
class Dct
{
  public:
    /** 1-D kernel selector for the batched 2-D row/column passes. */
    enum class Kind
    {
        Dct2,      ///< dct2()
        Idct2,     ///< idct2()
        CosSeries, ///< cosSeries()
        SinSeries, ///< sinSeries()
    };

    /** Forward DCT-II (unnormalized). */
    static std::vector<double> dct2(const std::vector<double> &x);

    /** Inverse of dct2: idct2(dct2(x)) == x. */
    static std::vector<double> idct2(const std::vector<double> &X);

    /** Cosine eigen-series evaluation (see file comment). */
    static std::vector<double> cosSeries(const std::vector<double> &c);

    /** Sine eigen-series evaluation (see file comment). */
    static std::vector<double> sinSeries(const std::vector<double> &c);

    /** Apply the 1-D kernel selected by @p kind to one vector. */
    static std::vector<double> apply(Kind kind, const std::vector<double> &x);

    /**
     * Apply @p kind along every length-@p nx row of the row-major
     * @p ny x @p nx map, rows chunked across @p pool (null = serial).
     * Rows are independent, so the result is bitwise-identical for any
     * thread count.
     *
     * Routed through the cached DctPlan for @p nx (see math/dct_plan);
     * callers in a hot loop should hold the plan and a DctScratch
     * themselves to also reuse the workspaces across calls.
     */
    static void transformRows(std::vector<double> &map, int nx, int ny,
                              Kind kind, ThreadPool *pool);

    /** Column-wise counterpart of transformRows (length-@p ny cols). */
    static void transformCols(std::vector<double> &map, int nx, int ny,
                              Kind kind, ThreadPool *pool);

    /** O(N^2) reference implementations used to validate the fast paths. */
    static std::vector<double> dct2Direct(const std::vector<double> &x);
    static std::vector<double> cosSeriesDirect(const std::vector<double> &c);
    static std::vector<double> sinSeriesDirect(const std::vector<double> &c);
};

} // namespace qplacer

#endif // QPLACER_MATH_DCT_HPP
