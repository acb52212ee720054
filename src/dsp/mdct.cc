#include "src/dsp/mdct.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numbers>

namespace espk {

namespace {
constexpr double kPi = std::numbers::pi;
}  // namespace

std::vector<double> SineWindow(size_t two_m) {
  std::vector<double> w(two_m);
  for (size_t n = 0; n < two_m; ++n) {
    w[n] = std::sin(kPi / static_cast<double>(two_m) *
                    (static_cast<double>(n) + 0.5));
  }
  return w;
}

Dct4Plan::Dct4Plan(size_t m)
    : m_(m),
      fft_(m / 2),
      pre_re_(m / 2),
      pre_im_(m / 2),
      post_re_(m / 2),
      post_im_(m / 2),
      work_re_(m / 2),
      work_im_(m / 2) {
  const size_t k = m / 2;
  const double md = static_cast<double>(m);
  for (size_t t = 0; t < k; ++t) {
    const double td = static_cast<double>(t);
    pre_re_[t] = Lane2{std::cos(-kPi * td / md),
                       std::cos(-3.0 * kPi * td / md)};
    pre_im_[t] = Lane2{std::sin(-kPi * td / md),
                       std::sin(-3.0 * kPi * td / md)};
  }
  for (size_t s = 0; s < k; ++s) {
    const double ae = -kPi * (4.0 * static_cast<double>(s) + 1.0) / (4.0 * md);
    const double ao = -kPi * (4.0 * static_cast<double>(s) + 3.0) / (4.0 * md);
    post_re_[s] = Lane2{std::cos(ae), std::cos(ao)};
    post_im_[s] = Lane2{std::sin(ae), std::sin(ao)};
  }
}

void Dct4Plan::Execute(const double* in, double* out) {
  const size_t m = m_;
  const size_t k = m / 2;
  Lane2* re = work_re_.data();
  Lane2* im = work_im_.data();
  // Pack z[t] = in[2t] + i in[m-1-2t] into lane 0 and conj(z[t]) into lane
  // 1, pre-twiddle, and store at the FFT's bit-reversed slot. Every read of
  // `in` happens here, before any write to `out`, so out may alias in.
  const Lane2* pre_re = pre_re_.data();
  const Lane2* pre_im = pre_im_.data();
  for (size_t t = 0; t < k; ++t) {
    const double zr = in[2 * t];
    const double zi = in[m - 1 - 2 * t];
    const Lane2 xr = {zr, zr};
    const Lane2 xi = {zi, -zi};
    const size_t slot = fft_.bitrev(t);
    re[slot] = xr * pre_re[t] - xi * pre_im[t];
    im[slot] = xr * pre_im[t] + xi * pre_re[t];
  }
  fft_.Transform(re, im);
  const Lane2* post_re = post_re_.data();
  const Lane2* post_im = post_im_.data();
  for (size_t s = 0; s < k; ++s) {
    const Lane2 pair = post_re[s] * re[s] - post_im[s] * im[s];
    std::memcpy(out + 2 * s, &pair, sizeof(pair));
  }
}

Mdct::Mdct(size_t half_length)
    : m_(half_length),
      window_(SineWindow(2 * m_)),
      inverse_window_(2 * m_),
      dct4_(m_),
      fold_(m_) {
  if (!IsPowerOfTwo(m_) || m_ < 8) {
    std::fprintf(stderr, "espk: MDCT half-length %zu must be 2^k >= 8\n", m_);
    std::abort();
  }
  const double scale = 2.0 / static_cast<double>(m_);
  for (size_t n = 0; n < 2 * m_; ++n) {
    inverse_window_[n] = scale * window_[n];
  }
}

void Mdct::Forward(const double* input, double* coeffs) {
  const size_t m = m_;
  // Window + TDAC fold of 2M samples to M in one pass (derivation in
  // header); z[n] = input[n] * window_[n] is never materialized.
  for (size_t j = 0; j < m / 2; ++j) {
    fold_[j] = -input[3 * m / 2 - 1 - j] * window_[3 * m / 2 - 1 - j] -
               input[3 * m / 2 + j] * window_[3 * m / 2 + j];
  }
  for (size_t j = m / 2; j < m; ++j) {
    fold_[j] = input[j - m / 2] * window_[j - m / 2] -
               input[3 * m / 2 - 1 - j] * window_[3 * m / 2 - 1 - j];
  }
  dct4_.Execute(fold_.data(), coeffs);
}

void Mdct::Inverse(const double* coeffs, double* output) {
  const size_t m = m_;
  dct4_.Execute(coeffs, fold_.data());
  const double* u = fold_.data();
  // Unfold (transpose of the forward fold), windowed and scaled in the
  // same pass.
  const double* w = inverse_window_.data();
  for (size_t n = 0; n < m / 2; ++n) {
    output[n] = u[n + m / 2] * w[n];
  }
  for (size_t n = m / 2; n < 3 * m / 2; ++n) {
    output[n] = -u[3 * m / 2 - 1 - n] * w[n];
  }
  for (size_t n = 3 * m / 2; n < 2 * m; ++n) {
    output[n] = -u[n - 3 * m / 2] * w[n];
  }
}

std::vector<double> Mdct::Forward(const std::vector<double>& input) {
  assert(input.size() == 2 * m_);
  std::vector<double> coeffs(m_);
  Forward(input.data(), coeffs.data());
  return coeffs;
}

std::vector<double> Mdct::Inverse(const std::vector<double>& coeffs) {
  assert(coeffs.size() == m_);
  std::vector<double> output(2 * m_);
  Inverse(coeffs.data(), output.data());
  return output;
}

std::vector<double> MdctForwardDirect(const std::vector<double>& input,
                                      const std::vector<double>& window) {
  const size_t two_m = input.size();
  const size_t m = two_m / 2;
  assert(window.size() == two_m);
  std::vector<double> out(m, 0.0);
  for (size_t k = 0; k < m; ++k) {
    double acc = 0.0;
    for (size_t n = 0; n < two_m; ++n) {
      acc += input[n] * window[n] *
             std::cos(kPi / static_cast<double>(m) *
                      (static_cast<double>(n) + 0.5 +
                       static_cast<double>(m) / 2.0) *
                      (static_cast<double>(k) + 0.5));
    }
    out[k] = acc;
  }
  return out;
}

std::vector<double> MdctInverseDirect(const std::vector<double>& coeffs,
                                      const std::vector<double>& window) {
  const size_t m = coeffs.size();
  const size_t two_m = 2 * m;
  assert(window.size() == two_m);
  std::vector<double> out(two_m, 0.0);
  for (size_t n = 0; n < two_m; ++n) {
    double acc = 0.0;
    for (size_t k = 0; k < m; ++k) {
      acc += coeffs[k] * std::cos(kPi / static_cast<double>(m) *
                                  (static_cast<double>(n) + 0.5 +
                                   static_cast<double>(m) / 2.0) *
                                  (static_cast<double>(k) + 0.5));
    }
    out[n] = acc * 2.0 / static_cast<double>(m) * window[n];
  }
  return out;
}

}  // namespace espk
