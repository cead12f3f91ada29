/**
 * @file
 * Precomputed execution plan for the radix-2 FFT (FFTW-style).
 *
 * A plain radix-2 FFT re-derives every twiddle factor and the
 * bit-reversal permutation on each call. An FftPlan hoists that work
 * to construction time: it stores the bit-reversal table and one
 * twiddle table per butterfly stage, generated with the iterated-product
 * recurrence of the plan-free kernel.
 *
 * One kernel, execute(), runs the butterflies on a batch of lines at
 * once. The lines are interleaved and split into real and imaginary
 * arrays: element k of line c is re[k*stride + c] + i*im[k*stride + c].
 * Every butterfly then runs as an inner loop across the lines, which
 * the compiler vectorizes. The caller writes each input element k into
 * slot bitReversal()[k] as it builds the lines (DctPlan does so while
 * it reorders or pre-twiddles), so no pass only moves data; the output
 * comes out in natural order. The inverse is left unnormalized: the
 * caller folds 1/N into the loop that reads the result.
 *
 * The stages run two per pass over the lines: stages len and 2*len
 * together transform each group of rows {p, p+h, p+len, p+len+h}
 * (h = len/2) while it is in registers, so a length-N transform
 * streams its lines through the cache ceil(log2(N)/2) times instead
 * of log2(N). An odd stage count ends with one plain radix-2 pass.
 *
 * Each element still goes through the same multiplies and adds, in the
 * same order, as the plan-free kernel (the oracle::Fft the plan tests
 * compare against, after permuting the input and scaling the inverse
 * themselves), so on finite input the result is bitwise-identical to
 * it. Only std::complex's NaN-recovery branch, which re-evaluates a
 * product whose real and imaginary parts both came out NaN, is not
 * reproduced; it matters only once a product overflows.
 *
 * Plans are immutable after construction and safe to share across
 * threads; execution works in place on caller-owned buffers.
 */

#ifndef QPLACER_MATH_FFT_PLAN_HPP
#define QPLACER_MATH_FFT_PLAN_HPP

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace qplacer {

/** True if @p n is a power of two (and > 0). */
inline bool
isPowerOfTwo(std::size_t n)
{
    return n > 0 && (n & (n - 1)) == 0;
}

/** Reusable twiddle/bit-reversal tables for one transform length. */
class FftPlan
{
  public:
    using Complex = std::complex<double>;

    /** Build tables for length @p n (must be a power of two). */
    explicit FftPlan(std::size_t n);

    /** Transform length the plan was built for. */
    std::size_t length() const { return n_; }

    /**
     * The bit-reversal permutation: element k of a line belongs in slot
     * bitReversal()[k] before execute() (an involution).
     */
    const std::vector<std::uint32_t> &
    bitReversal() const
    {
        return bitReversal_;
    }

    /**
     * In-place forward transform X[k] = sum_n x[n] exp(-2*pi*i*k*n/N)
     * (or, with @p invert, the same sum with the opposite sign and no
     * 1/N) of @p lines lines of length length(), element k of line c
     * being re[k*stride + c] + i*im[k*stride + c]. The input must
     * already be in bit-reversed order; the output is in natural
     * order. Lines must not overlap.
     */
    void execute(double *re, double *im, std::size_t lines,
                 std::size_t stride, bool invert) const;

  private:
    std::size_t n_;
    std::vector<std::uint32_t> bitReversal_;
    /**
     * Per-stage twiddles, stages len = 2, 4, ..., n concatenated
     * (len/2 entries each, n-1 total); generated by the w *= wlen
     * recurrence of the plan-free kernel so lookups are bitwise-faithful.
     */
    std::vector<Complex> fwdTwiddle_;
    std::vector<Complex> invTwiddle_; ///< Same for the inverse sign.
};

} // namespace qplacer

#endif // QPLACER_MATH_FFT_PLAN_HPP
