#ifndef RUBIK_UTIL_FFT_H
#define RUBIK_UTIL_FFT_H

/**
 * @file
 * Radix-2 FFT and FFT-based real convolution.
 *
 * Rubik rebuilds its target tail tables every 100 ms; each rebuild performs
 * ~16 convolutions of 128-bucket distributions per table. The paper uses
 * FFTs to accelerate these convolutions (Sec. 4.2, "Cost"); we provide both
 * the FFT path and a direct O(n^2) path (used for testing and for very
 * small sizes, where direct is faster).
 *
 * The table-rebuild hot path goes through FftPlan: a per-size cache of the
 * bit-reversal permutation and per-stage twiddle tables. The tables are
 * generated by the same incremental recurrence as the unplanned fft(), so
 * planned transforms are bitwise identical to it — the plan only removes
 * the per-call trigonometry, the twiddle-update multiply chain, and (via
 * FftScratch) all per-call allocation. A real input is loaded straight
 * into bit-reversed order (forwardReal), so a forward transform of
 * probability masses runs no swap or zero-padding pass.
 */

#include <complex>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace rubik {

/**
 * In-place iterative radix-2 Cooley-Tukey FFT (unplanned reference).
 *
 * @param a      Data; size must be a power of two.
 * @param invert false for forward transform, true for inverse
 *               (inverse includes the 1/n normalization).
 */
void fft(std::vector<std::complex<double>> &a, bool invert);

/**
 * Precomputed transform plan for one power-of-two size: the bit-reversal
 * permutation plus forward/inverse twiddle tables. Plans are immutable once
 * built; forSize() returns a shared, never-evicted instance and is safe
 * to call from many threads concurrently (sweeps run convolutions from
 * every ExperimentRunner job).
 */
class FftPlan
{
  public:
    /// Shared plan for size n (must be a power of two, n >= 1).
    static const FftPlan &forSize(std::size_t n);

    std::size_t size() const { return n_; }

    /**
     * In-place transform of a[0..n). Bitwise identical to
     * fft(a, invert) on the same data.
     */
    void run(std::complex<double> *a, bool invert) const;
    void run(std::vector<std::complex<double>> &a, bool invert) const;

    /**
     * Forward transform of the real sequence x[0..len) zero-padded to
     * size() (len <= size()), written to out[0..size()). Each input is
     * loaded straight into its bit-reversed slot, so there is no swap
     * or padding pass; bitwise identical to run(a, false) on the
     * zero-padded complex copy of x.
     */
    void forwardReal(const double *x, std::size_t len,
                     std::complex<double> *out) const;

  private:
    explicit FftPlan(std::size_t n);

    std::size_t n_;
    /// 1/n. n is a power of two, so multiplying by it is bitwise
    /// identical to the unplanned transform's division and much cheaper.
    double invN_ = 1.0;
    /// Bit-reversal permutation: slot i of the reordered input holds
    /// element rev_[i].
    std::vector<std::uint32_t> rev_;
    /// The same permutation as (i, rev_[i]) pairs with i < rev_[i]:
    /// the swaps run() performs (a list is cheaper to walk than rev_
    /// with a branch per slot).
    std::vector<std::pair<std::uint32_t, std::uint32_t>> swaps_;
    /// Twiddles for all stages, concatenated: the stage with half-length
    /// h = len/2 owns entries [h - 1, 2h - 1), generated by the same
    /// w *= wlen recurrence the unplanned transform uses.
    std::vector<std::complex<double>> fwd_;
    std::vector<std::complex<double>> inv_;
};

/// Reusable scratch buffers for allocation-free planned convolution.
struct FftScratch
{
    std::vector<std::complex<double>> fa;
    std::vector<std::complex<double>> fb;
};

/**
 * Linear convolution of two real sequences via FFT.
 * Result has size a.size() + b.size() - 1.
 */
std::vector<double> fftConvolve(const std::vector<double> &a,
                                const std::vector<double> &b);

/**
 * Planned, allocation-free fftConvolve: writes the
 * a.size() + b.size() - 1 result into `out` (resized; scratch reused
 * across calls). Bitwise identical to fftConvolve(a, b).
 */
void fftConvolvePlanned(const std::vector<double> &a,
                        const std::vector<double> &b, FftScratch &scratch,
                        std::vector<double> &out);

/// Transform length of a linear convolution with `out_size` outputs:
/// the smallest power of two >= out_size.
std::size_t fftConvolveSize(std::size_t out_size);

/**
 * The second half of fftConvolvePlanned, for callers that hold the
 * operands' forward spectra (FftPlan::forwardReal): fa[i] *= fb[i],
 * the inverse transform in place in fa, then the clamped real parts
 * of its first out_size values into `out` (resized). fa and fb hold
 * plan.size() values.
 */
void fftConvolveSpectra(const FftPlan &plan, std::complex<double> *fa,
                        const std::complex<double> *fb,
                        std::size_t out_size, std::vector<double> &out);

/**
 * Direct O(n*m) linear convolution of two real sequences.
 * Result has size a.size() + b.size() - 1.
 */
std::vector<double> directConvolve(const std::vector<double> &a,
                                   const std::vector<double> &b);

} // namespace rubik

#endif // RUBIK_UTIL_FFT_H
