/**
 * @file
 * Precomputed execution plan for the DCT/DST kernels (FFTW-style).
 *
 * The static Dct kernels heap-allocate an FFT workspace and re-derive
 * the Makhoul twiddles on every call — once per row/column of every
 * 2-D pass of every Poisson solve. A DctPlan is built once per
 * transform length and holds:
 *
 *  - an FftPlan (bit-reversal pairs + per-stage FFT twiddles), and
 *  - the forward/inverse Makhoul post/pre-twiddles e^(+-i*pi*k/(2N)),
 *
 * while a DctScratch provides per-chunk reusable buffers so the
 * batched row/column passes transform in place without a single
 * allocation after warm-up. Every kernel is bitwise-identical to its
 * Dct:: counterpart (same operations, same order — only the transcend-
 * ental evaluations are hoisted to plan construction).
 *
 * Thread-safety: a plan is immutable and may be shared freely (see
 * PlanCache); a DctScratch must be owned by one transform call chain
 * at a time — the batched passes hand lane @c c to chunk @c c, which
 * keeps lanes race-free under the deterministic chunked parallel-for.
 */

#ifndef QPLACER_MATH_DCT_PLAN_HPP
#define QPLACER_MATH_DCT_PLAN_HPP

#include <vector>

#include "math/dct.hpp"
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
        std::vector<Fft::Complex> spectrum; ///< FFT workspace.
        std::vector<double> line; ///< Column gather/scatter row.
        std::vector<double> flip; ///< sinSeries coefficient reversal.
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

/** Plan for every Dct kernel at one transform length. */
class DctPlan
{
  public:
    using Kind = Dct::Kind;

    /** Build tables for length @p n (must be a power of two). */
    explicit DctPlan(std::size_t n);

    /** Transform length the plan was built for. */
    std::size_t length() const { return n_; }

    /**
     * Apply @p kind in place to x[0..length()), working through
     * @p lane. Bitwise-identical to Dct::apply on the same input.
     */
    void apply(Kind kind, double *x, DctScratch::Lane &lane) const;

    /**
     * Apply @p kind along every length-@p nx row of the row-major
     * @p ny x @p nx map (requires nx == length()), rows chunked
     * across @p pool (null = serial) with one scratch lane per chunk.
     * Bitwise-identical to a per-row Dct::apply for any thread count.
     */
    void transformRows(std::vector<double> &map, int nx, int ny,
                       Kind kind, ThreadPool *pool,
                       DctScratch &scratch) const;

    /**
     * Column-wise counterpart (requires ny == length()); each chunk
     * gathers columns through its lane's reusable line buffer instead
     * of allocating per-column vectors.
     */
    void transformCols(std::vector<double> &map, int nx, int ny,
                       Kind kind, ThreadPool *pool,
                       DctScratch &scratch) const;

  private:
    void dct2(double *x, DctScratch::Lane &lane) const;
    void idct2(double *x, DctScratch::Lane &lane) const;
    void cosSeries(double *x, DctScratch::Lane &lane) const;
    void sinSeries(double *x, DctScratch::Lane &lane) const;

    std::size_t n_;
    FftPlan fft_;
    /** Forward Makhoul twiddles e^(-i*pi*k/(2N)), k = 0..N-1. */
    std::vector<Fft::Complex> fwdTwiddle_;
    /** Inverse Makhoul twiddles e^(+i*pi*k/(2N)). */
    std::vector<Fft::Complex> invTwiddle_;
};

} // namespace qplacer

#endif // QPLACER_MATH_DCT_PLAN_HPP
