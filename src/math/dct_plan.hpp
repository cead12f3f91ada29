/**
 * @file
 * Precomputed execution plan for the DCT/DST kernels (FFTW-style)
 * behind the spectral Poisson solver of the density force, built on
 * the radix-2 FFT with Makhoul's method:
 *
 *  - Dct2:      X[k] = sum_n x[n] cos(pi*(n+0.5)*k/N)          (DCT-II)
 *  - CosSeries: y[n] = c[0] + 2*sum_{k>=1} c[k] cos(pi*(n+0.5)*k/N)
 *  - SinSeries: y[n] = 2*sum_{k>=1} c[k] sin(pi*(n+0.5)*k/N)
 *
 * CosSeries evaluates a Neumann-boundary eigenfunction expansion on the
 * half-sample grid; SinSeries is its x-derivative counterpart (used for
 * the electric field). All lengths must be powers of two.
 *
 * A DctPlan is built once per transform length and holds:
 *
 *  - an FftPlan (bit-reversal table + per-stage FFT twiddles), and
 *  - the forward/inverse Makhoul post/pre-twiddles e^(+-i*pi*k/(2N)),
 *
 * while a DctScratch provides per-chunk reusable buffers so the
 * batched row/column passes run without a single allocation after
 * warm-up.
 *
 * One kernel, transformLines(), transforms a tile of lines of the map
 * in place: element k of line c is x[k*stride + c*line_stride] (a
 * column pass: stride nx, line stride 1; a row pass: stride 1, line
 * stride nx). The FFT workspace splits real and imaginary parts into
 * separate arrays with the lines innermost (see FftPlan::execute), and
 * every Makhoul reorder and twiddle, butterfly and SinSeries flip is an
 * inner loop across the lines of the tile, which the compiler
 * vectorizes. The reordered (or pre-twiddled) input goes straight into
 * the FFT's bit-reversed slots, and the inverse's 1/N is applied as
 * the result is written back, so no pass only moves data. apply() is
 * the one-line case.
 *
 * Each element gets the same multiplies and adds, in the same order,
 * as the plan-free per-line kernel (oracle::Dct in tests/oracles; only
 * the transcendental evaluations are hoisted to plan construction), so
 * on finite input every kernel is bitwise-identical to it. The one
 * exception is std::complex's NaN-recovery branch, which the oracle
 * takes when both parts of a product come out NaN: it only matters once
 * a product overflows.
 *
 * Thread-safety: a plan is immutable and may be shared freely (each
 * PoissonSolver builds its own); a DctScratch must be owned by one
 * transform call chain at a time — the batched passes hand lane @c c to
 * chunk @c c, which keeps lanes race-free under the deterministic
 * chunked parallel-for.
 */

#ifndef QPLACER_MATH_DCT_PLAN_HPP
#define QPLACER_MATH_DCT_PLAN_HPP

#include <vector>

#include "math/fft_plan.hpp"

namespace qplacer {

class ThreadPool;

/** Reusable per-chunk workspaces for DctPlan execution. */
class DctScratch
{
  public:
    /** Buffers one executing chunk (thread) transforms through. */
    struct Lane
    {
        std::vector<double> re; ///< FFT workspace, real parts.
        std::vector<double> im; ///< FFT workspace, imaginary parts.
    };

    /**
     * Grow to at least @p lanes lanes. Called by the batched passes
     * before entering the parallel region; buffers keep their capacity
     * across calls, so steady-state transforms allocate nothing.
     */
    void ensure(int lanes);

    /** Lane for chunk @p chunk (valid after ensure()). */
    Lane &lane(int chunk) { return lanes_[static_cast<std::size_t>(chunk)]; }

    /** Lanes currently available. */
    int lanes() const { return static_cast<int>(lanes_.size()); }

  private:
    std::vector<Lane> lanes_;
};

/** Plan for every DCT/DST kernel at one transform length. */
class DctPlan
{
  public:
    /** 1-D kernel selector (see the file comment). */
    enum class Kind
    {
        Dct2,
        CosSeries,
        SinSeries,
    };

    /** Build tables for length @p n (must be a power of two). */
    explicit DctPlan(std::size_t n);

    /** Transform length the plan was built for. */
    std::size_t length() const { return n_; }

    /**
     * Apply @p kind in place to x[0..length()), working through
     * @p lane (the one-line case of transformLines).
     */
    void apply(Kind kind, double *x, DctScratch::Lane &lane) const;

    /**
     * Apply @p kind along every length-@p nx row of the row-major
     * @p ny x @p nx map (requires nx == length()), rows chunked
     * across @p pool (null = serial) with one scratch lane per chunk;
     * a chunk transforms its rows in place on the map, a tile of
     * adjacent rows at a time (line stride nx). Rows are independent,
     * so the result is bitwise-identical for any thread count.
     */
    void transformRows(std::vector<double> &map, int nx, int ny,
                       Kind kind, ThreadPool *pool,
                       DctScratch &scratch) const;

    /**
     * Column-wise counterpart (requires ny == length()); each chunk
     * transforms its columns in place on the map, a tile of adjacent
     * columns at a time (stride nx).
     */
    void transformCols(std::vector<double> &map, int nx, int ny,
                       Kind kind, ThreadPool *pool,
                       DctScratch &scratch) const;

  private:
    /**
     * Apply @p kind in place to @p lines lines, element k of line c
     * being x[k*stride + c*line_stride] (no two elements shared),
     * working through @p lane.
     */
    void transformLines(Kind kind, double *x, std::size_t lines,
                        std::size_t stride, std::size_t line_stride,
                        DctScratch::Lane &lane) const;

    std::size_t n_;
    FftPlan fft_;
    /** Forward Makhoul twiddles e^(-i*pi*k/(2N)), k = 0..N-1. */
    std::vector<FftPlan::Complex> fwdTwiddle_;
    /** Inverse Makhoul twiddles e^(+i*pi*k/(2N)). */
    std::vector<FftPlan::Complex> invTwiddle_;
};

} // namespace qplacer

#endif // QPLACER_MATH_DCT_PLAN_HPP
