#include "src/dsp/fft.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numbers>

namespace espk {

bool IsPowerOfTwo(size_t n) { return n != 0 && (n & (n - 1)) == 0; }

namespace {

// Always-on (assert fires only in debug builds, and a wrong-size FFT
// silently corrupts audio rather than crashing anywhere near the bug).
void CheckPowerOfTwo(size_t n, const char* what) {
  if (!IsPowerOfTwo(n)) {
    std::fprintf(stderr, "espk: %s size %zu is not a power of two\n", what, n);
    std::abort();
  }
}

// One radix-2 butterfly on both lanes, in explicit real arithmetic: a
// std::complex<double> multiply lowers to a __muldc3 libcall for NaN fixups,
// which would dominate the transform.
inline void Butterfly(Lane2& ar, Lane2& ai, Lane2& br, Lane2& bi, Lane2 wr,
                      Lane2 wi) {
  const Lane2 vr = br * wr - bi * wi;
  const Lane2 vi = br * wi + bi * wr;
  br = ar - vr;
  bi = ai - vi;
  ar = ar + vr;
  ai = ai + vi;
}

// Runs `plan` over `data` in lane 0 (lane 1 idle). With `swap`, real and
// imaginary parts are exchanged on the way in and on the way out.
void RunLane0(const FftPlan& plan, std::complex<double>* data, bool swap) {
  const size_t n = plan.size();
  std::vector<Lane2> re(n);
  std::vector<Lane2> im(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t slot = plan.bitrev(i);
    re[slot][0] = swap ? data[i].imag() : data[i].real();
    im[slot][0] = swap ? data[i].real() : data[i].imag();
  }
  plan.Transform(re.data(), im.data());
  for (size_t i = 0; i < n; ++i) {
    data[i] = swap ? std::complex<double>(im[i][0], re[i][0])
                   : std::complex<double>(re[i][0], im[i][0]);
  }
}

}  // namespace

FftPlan::FftPlan(size_t n) : n_(n) {
  CheckPowerOfTwo(n, "FFT");
  // Bit-reversal permutation, built incrementally.
  bitrev_.resize(n);
  size_t j = 0;
  bitrev_[0] = 0;
  for (size_t i = 1; i < n; ++i) {
    size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) {
      j ^= bit;
    }
    j ^= bit;
    bitrev_[i] = static_cast<uint32_t>(j);
  }
  // Forward twiddles for every stage, flattened. Stage with span `len`
  // starts at offset len/2 - 1 and holds e^{-2*pi*i*k/len} for k < len/2.
  twiddle_.reserve(n - 1);
  for (size_t len = 2; len <= n; len <<= 1) {
    const double base = -2.0 * std::numbers::pi / static_cast<double>(len);
    for (size_t k = 0; k < len / 2; ++k) {
      const double angle = base * static_cast<double>(k);
      const double c = std::cos(angle);
      const double s = std::sin(angle);
      twiddle_.push_back({Lane2{c, c}, Lane2{s, s}});
    }
  }
}

void FftPlan::Transform(Lane2* re, Lane2* im) const {
  const size_t n = n_;
  // `half` is the butterfly distance of the next stage. With an odd number
  // of stages the first (span 2) runs alone; the rest go in fused pairs.
  size_t half = 1;
  if (std::countr_zero(n) % 2 == 1) {
    const Twiddle w = twiddle_[0];
    for (size_t i = 0; i < n; i += 2) {
      Butterfly(re[i], im[i], re[i + 1], im[i + 1], w.re, w.im);
    }
    half = 2;
  }
  // Stages with distance `half` and 2*half over each group of four values
  // p0..p3 = i + k + {0, 1, 2, 3} * half: the first pairs (p0,p1) and
  // (p2,p3) with twiddle k of its stage, the second (p0,p2) and (p1,p3)
  // with twiddles k and k + half of its stage.
  for (; half < n; half *= 4) {
    const Twiddle* stage1 = twiddle_.data() + half - 1;
    const Twiddle* stage2 = twiddle_.data() + 2 * half - 1;
    for (size_t k = 0; k < half; ++k) {
      const Twiddle t1 = stage1[k];
      const Twiddle t2 = stage2[k];
      const Twiddle t3 = stage2[k + half];
      for (size_t i = k; i < n; i += 4 * half) {
        Lane2 r0 = re[i];
        Lane2 i0 = im[i];
        Lane2 r1 = re[i + half];
        Lane2 i1 = im[i + half];
        Lane2 r2 = re[i + 2 * half];
        Lane2 i2 = im[i + 2 * half];
        Lane2 r3 = re[i + 3 * half];
        Lane2 i3 = im[i + 3 * half];
        Butterfly(r0, i0, r1, i1, t1.re, t1.im);
        Butterfly(r2, i2, r3, i3, t1.re, t1.im);
        Butterfly(r0, i0, r2, i2, t2.re, t2.im);
        Butterfly(r1, i1, r3, i3, t3.re, t3.im);
        re[i] = r0;
        im[i] = i0;
        re[i + half] = r1;
        im[i + half] = i1;
        re[i + 2 * half] = r2;
        im[i + 2 * half] = i2;
        re[i + 3 * half] = r3;
        im[i + 3 * half] = i3;
      }
    }
  }
}

void FftPlan::Forward(std::complex<double>* data) const {
  RunLane0(*this, data, false);
}

void FftPlan::Inverse(std::complex<double>* data) const {
  RunLane0(*this, data, true);
  const double scale = 1.0 / static_cast<double>(n_);
  for (size_t i = 0; i < n_; ++i) {
    data[i] *= scale;
  }
}

void Fft(std::vector<std::complex<double>>* data) {
  CheckPowerOfTwo(data->size(), "FFT");
  FftPlan(data->size()).Forward(data->data());
}

void Ifft(std::vector<std::complex<double>>* data) {
  CheckPowerOfTwo(data->size(), "FFT");
  FftPlan(data->size()).Inverse(data->data());
}

}  // namespace espk
