/**
 * @file
 * Precomputed execution plan for the radix-2 FFT (FFTW-style).
 *
 * A plain radix-2 FFT re-derives every twiddle factor and the
 * bit-reversal permutation on each call. An FftPlan hoists that work
 * to construction time: it stores the swap pairs of the bit-reversal
 * permutation and one twiddle table per butterfly stage, generated
 * with the iterated-product recurrence of the plan-free kernel.
 *
 * One kernel, execute(), transforms a batch of lines at once. The
 * lines are interleaved and split into real and imaginary arrays:
 * element k of line c is re[k*stride + c] + i*im[k*stride + c]. Every
 * butterfly then runs as an inner loop across the lines, which the
 * compiler vectorizes. forward()/inverse() on one std::complex array
 * are the one-line case (re/im = the interleaved parts, stride 2).
 *
 * Each element goes through the same multiplies and adds, in the same
 * order, as the plan-free kernel (the oracle::Fft the plan tests
 * compare against), so on finite input the result is bitwise-identical
 * to it. Only std::complex's NaN-recovery branch, which re-evaluates a
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
     * In-place forward transform (no normalization) of
     * data[0..length()): X[k] = sum_n x[n] exp(-2*pi*i*k*n/N).
     */
    void forward(Complex *data) const { executeComplex(data, false); }

    /** In-place inverse transform, 1/N-normalized. */
    void inverse(Complex *data) const { executeComplex(data, true); }

    /**
     * In-place forward (or 1/N-normalized inverse) transform of
     * @p lines lines of length length(), element k of line c being
     * re[k*stride + c] + i*im[k*stride + c]. Lines must not overlap.
     */
    void execute(double *re, double *im, std::size_t lines,
                 std::size_t stride, bool invert) const;

  private:
    /** One std::complex line: its interleaved parts at stride 2. */
    void
    executeComplex(Complex *data, bool invert) const
    {
        auto *parts = reinterpret_cast<double *>(data);
        execute(parts, parts + 1, 1, 2, invert);
    }

    std::size_t n_;
    /** Bit-reversal swap pairs (i < j only, in ascending i order). */
    std::vector<std::uint32_t> swapLo_;
    std::vector<std::uint32_t> swapHi_;
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
