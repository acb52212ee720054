// Modified Discrete Cosine Transform with Princen-Bradley TDAC, the heart of
// the Vorbix codec (our from-scratch stand-in for Ogg Vorbis). Conventions:
//
//   forward:  X[k] = sum_{n=0}^{2M-1} x[n] w[n]
//                    cos(pi/M (n + 0.5 + M/2)(k + 0.5)),  k in [0, M)
//   inverse:  y[n] = (2/M) w[n] sum_{k=0}^{M-1} X[k]
//                    cos(pi/M (n + 0.5 + M/2)(k + 0.5)),  n in [0, 2M)
//
// where w is the sine window. Overlap-adding the second half of block t with
// the first half of block t+1 reconstructs the input exactly.
//
// Two implementations are provided: a fast plan-based one (fold to DCT-IV,
// DCT-IV via two half-length complex FFTs, all twiddles precomputed, all
// scratch owned by the plan) used by the codec, and a direct O(N^2)
// reference used in tests to pin the fast path down bit-for-bit.
//
// Ownership / threading: a Dct4Plan or Mdct owns mutable scratch, so
// Forward/Inverse/Execute are non-const and an instance must not be shared
// across threads without external locking. Construct one per encoder or
// decoder (they are cheap: a few KB of tables per size). After
// construction, Forward/Inverse perform no heap allocation.
#ifndef SRC_DSP_MDCT_H_
#define SRC_DSP_MDCT_H_

#include <complex>
#include <cstddef>
#include <vector>

#include "src/dsp/fft.h"

namespace espk {

// Sine window of length 2M: w[n] = sin(pi/(2M) (n + 0.5)). Satisfies the
// Princen-Bradley condition w[n]^2 + w[n+M]^2 = 1.
std::vector<double> SineWindow(size_t two_m);

// DCT-IV of length M (a power of two >= 8) via two M/2-point complex FFTs.
// With K = M/2, z[t] = v[2t] + i v[M-1-2t] packs the input; then
//   X[2s]   = Re( e^{-i pi (4s+1)/(4M)} FFT_K(z[t]      e^{-i pi t/M} )[s] )
//   X[2s+1] = Re( e^{-i pi (4s+3)/(4M)} FFT_K(conj(z[t]) e^{-3i pi t/M})[s] )
// (split the DCT-IV sum over even/odd j, then over even/odd k; the odd-j
// cosine collapses to (+/-)sin at half-integer frequencies). ~2.5x fewer
// butterflies than the zero-padded 2M-point FFT form, and no zero padding.
//
// The two FFTs share their twiddles, so they run as the two lanes of one
// FftPlan::Transform: lane 0 is the even FFT, lane 1 the odd one. The pack
// stores conj(z) in lane 1 and pre-twiddles both lanes with one complex
// multiply, writing straight into bit-reversed slots; the post-twiddle
// emits out[2s] and out[2s+1] as one lane pair. Each lane does the same IEEE
// operations in the same order as two separate scalar FFTs would (negating
// an operand and flipping the following add/subtract is exact), so Execute
// is bit-identical to that form: dsp_test pins it with memcmp against a
// scalar reference, and against the direct O(N^2) formula numerically.
// All twiddle tables and the work buffers are precomputed / preallocated at
// construction.
class Dct4Plan {
 public:
  explicit Dct4Plan(size_t m);

  size_t size() const { return m_; }

  // out[k] = DCT4(in)[k] for k < size(). `out` may alias `in`. No heap
  // allocation; mutates internal scratch (hence non-const).
  void Execute(const double* in, double* out);

 private:
  size_t m_;
  FftPlan fft_;  // size M/2
  // Per lane {even, odd}: pre-twiddles {e^{-i pi t/M}, e^{-3i pi t/M}} and
  // post-twiddles {e^{-i pi (4s+1)/(4M)}, e^{-i pi (4s+3)/(4M)}}, split
  // into real and imaginary parts.
  std::vector<Lane2> pre_re_;
  std::vector<Lane2> pre_im_;
  std::vector<Lane2> post_re_;
  std::vector<Lane2> post_im_;
  std::vector<Lane2> work_re_;  // M/2 scratch, both lanes
  std::vector<Lane2> work_im_;
};

// Precomputed transform for half-length M (a power of two >= 8). The window
// is applied inside Forward/Inverse.
class Mdct {
 public:
  explicit Mdct(size_t half_length);

  size_t half_length() const { return m_; }
  const std::vector<double>& window() const { return window_; }

  // Zero-allocation forms used by the codec hot path. `input` points at 2M
  // samples, `coeffs` at M; `output` at 2M. Input/output may not alias.
  void Forward(const double* input, double* coeffs);
  void Inverse(const double* coeffs, double* output);

  // Allocating conveniences (tests, cold paths).
  std::vector<double> Forward(const std::vector<double>& input);
  std::vector<double> Inverse(const std::vector<double>& coeffs);

 private:
  size_t m_;
  std::vector<double> window_;  // length 2M
  // (2/M) * window_[n], the inverse's output scale, same product per sample.
  std::vector<double> inverse_window_;
  Dct4Plan dct4_;
  std::vector<double> fold_;    // M scratch (fold / DCT-IV output)
};

// Direct-formula reference implementations (slow; tests only).
std::vector<double> MdctForwardDirect(const std::vector<double>& input,
                                      const std::vector<double>& window);
std::vector<double> MdctInverseDirect(const std::vector<double>& coeffs,
                                      const std::vector<double>& window);

}  // namespace espk

#endif  // SRC_DSP_MDCT_H_
