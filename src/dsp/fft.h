// Iterative radix-2 complex FFT. The fast MDCT in mdct.cc rides on this; no
// external DSP library is used anywhere in the codebase.
//
// There is one butterfly kernel, FftPlan::Transform, and it works on two
// signals at once: every value is a Lane2 (two doubles), data is split into
// separate real and imaginary arrays, and lane 0 and lane 1 are independent
// transforms sharing the same twiddles. The DCT-IV in mdct.cc runs its even
// and odd half-length FFTs as the two lanes of one pass. Each lane performs
// exactly the IEEE operations of a scalar radix-2 decimation-in-time FFT, in
// the same order per butterfly, so a lane's result is bit-identical to the
// scalar transform (dsp_test keeps that scalar FFT as the oracle). Two
// consecutive radix-2 stages are fused so a group of four values stays in
// registers across both; that reorders independent butterflies only.
//
// Bit identity needs the compiler not to contract a*b - c*d into a fused
// multiply-add: espk_dsp is built with -ffp-contract=off and no -march.
//
// Entry points:
//   - FftPlan::Transform: the two-lane kernel. The plan precomputes the
//     bit-reversal permutation and all per-stage twiddles at construction;
//     the caller stores its inputs in bit-reversed order (for example while
//     pre-twiddling, as Dct4Plan does), so there is no swap pass. No heap
//     allocation and no trig per call. This is the codec hot path.
//   - FftPlan::Forward/Inverse and Fft()/Ifft(): complex-array conveniences
//     that run one signal in lane 0 over scratch they allocate. Tests and
//     cold paths only.
//
// Non-power-of-two sizes are rejected with a fatal diagnostic in every build
// mode (not just assert-enabled builds): a wrong-size transform silently
// corrupts audio, which is much harder to debug than an abort.
#ifndef SRC_DSP_FFT_H_
#define SRC_DSP_FFT_H_

#include <complex>
#include <cstdint>
#include <vector>

namespace espk {

// Two doubles operated on lane-wise (GCC/Clang vector extension; plain SSE2
// on x86-64, NEON on aarch64, scalar pairs elsewhere).
using Lane2 = double __attribute__((vector_size(16)));

bool IsPowerOfTwo(size_t n);

class FftPlan {
 public:
  // `n` must be a power of two >= 1; anything else aborts with a message.
  explicit FftPlan(size_t n);

  size_t size() const { return n_; }

  // Slot that input i must occupy before Transform.
  size_t bitrev(size_t i) const { return bitrev_[i]; }

  // In-place forward DFT, X[k] = sum_n x[n] e^{-2*pi*i*n*k/N}, of two
  // signals at once (one per lane). `re`/`im` point at size() entries that
  // hold x[n] at slot bitrev(n); the result is in natural order.
  void Transform(Lane2* re, Lane2* im) const;

  // In-place forward DFT of `data` (size() elements).
  void Forward(std::complex<double>* data) const;

  // In-place inverse DFT including the 1/N scale. Runs the forward kernel on
  // the real/imaginary-swapped input, which performs the same operations as
  // a conjugate-twiddle inverse.
  void Inverse(std::complex<double>* data) const;

 private:
  size_t n_;
  std::vector<uint32_t> bitrev_;  // bitrev_[i] = bit-reversed index of i.
  // Forward twiddle e^{-2*pi*i*k/len}, broadcast to both lanes.
  struct Twiddle {
    Lane2 re;
    Lane2 im;
  };
  // All stages flattened: the stage with butterfly span `len` holds len/2
  // entries from offset len/2 - 1, n-1 entries in total.
  std::vector<Twiddle> twiddle_;
};

// One-shot wrappers (build a plan per call; tests and cold paths).
// `data->size()` must be a power of two.
void Fft(std::vector<std::complex<double>>* data);
void Ifft(std::vector<std::complex<double>>* data);

}  // namespace espk

#endif  // SRC_DSP_FFT_H_
