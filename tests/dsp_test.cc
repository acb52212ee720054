#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <numbers>

#include "src/audio/generator.h"
#include "src/base/prng.h"
#include "src/dsp/bitstream.h"
#include "src/dsp/fft.h"
#include "src/dsp/mdct.h"
#include "src/dsp/psymodel.h"
#include "src/dsp/rice.h"

namespace espk {
namespace {

// ------------------------------------------------------------------- FFT --

std::vector<std::complex<double>> NaiveDft(
    const std::vector<std::complex<double>>& x) {
  const size_t n = x.size();
  std::vector<std::complex<double>> out(n);
  for (size_t k = 0; k < n; ++k) {
    std::complex<double> acc = 0.0;
    for (size_t j = 0; j < n; ++j) {
      double angle = -2.0 * std::numbers::pi * static_cast<double>(j * k) /
                     static_cast<double>(n);
      acc += x[j] * std::complex<double>(std::cos(angle), std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}

TEST(FftTest, MatchesNaiveDftOnRandomInput) {
  Prng prng(13);
  std::vector<std::complex<double>> x(64);
  for (auto& c : x) {
    c = {prng.NextDouble() - 0.5, prng.NextDouble() - 0.5};
  }
  auto expected = NaiveDft(x);
  auto actual = x;
  Fft(&actual);
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(actual[i].real(), expected[i].real(), 1e-9);
    EXPECT_NEAR(actual[i].imag(), expected[i].imag(), 1e-9);
  }
}

TEST(FftTest, InverseRecoversInput) {
  Prng prng(29);
  std::vector<std::complex<double>> x(256);
  for (auto& c : x) {
    c = {prng.NextGaussian(), prng.NextGaussian()};
  }
  auto work = x;
  Fft(&work);
  Ifft(&work);
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(work[i].real(), x[i].real(), 1e-9);
    EXPECT_NEAR(work[i].imag(), x[i].imag(), 1e-9);
  }
}

TEST(FftTest, ImpulseGivesFlatSpectrum) {
  std::vector<std::complex<double>> x(32, 0.0);
  x[0] = 1.0;
  Fft(&x);
  for (const auto& c : x) {
    EXPECT_NEAR(c.real(), 1.0, 1e-12);
    EXPECT_NEAR(c.imag(), 0.0, 1e-12);
  }
}

TEST(FftTest, ParsevalHolds) {
  Prng prng(31);
  std::vector<std::complex<double>> x(128);
  double time_energy = 0.0;
  for (auto& c : x) {
    c = {prng.NextGaussian(), 0.0};
    time_energy += std::norm(c);
  }
  Fft(&x);
  double freq_energy = 0.0;
  for (const auto& c : x) {
    freq_energy += std::norm(c);
  }
  EXPECT_NEAR(freq_energy / 128.0, time_energy, 1e-8);
}

TEST(FftTest, IsPowerOfTwoHelper) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(1024));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(12));
}

TEST(FftTest, PlanMatchesFreeFunctionAndRoundTrips) {
  for (size_t n : {8u, 64u, 1024u}) {
    FftPlan plan(n);
    Prng prng(n);
    std::vector<std::complex<double>> x(n);
    for (auto& c : x) {
      c = {prng.NextGaussian(), prng.NextGaussian()};
    }
    // The free function is a one-shot plan, so results are bit-identical.
    auto via_free = x;
    Fft(&via_free);
    auto via_plan = x;
    plan.Forward(via_plan.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(via_plan[i], via_free[i]) << "n=" << n << " bin " << i;
    }
    // Reusing the same plan for the inverse recovers the input.
    plan.Inverse(via_plan.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(via_plan[i].real(), x[i].real(), 1e-9);
      EXPECT_NEAR(via_plan[i].imag(), x[i].imag(), 1e-9);
    }
  }
}

// ------------------------------------------------------------------ MDCT --

TEST(MdctTest, SineWindowSatisfiesPrincenBradley) {
  auto w = SineWindow(256);
  for (size_t n = 0; n < 128; ++n) {
    EXPECT_NEAR(w[n] * w[n] + w[n + 128] * w[n + 128], 1.0, 1e-12);
  }
}

TEST(MdctTest, FastForwardMatchesDirect) {
  const size_t m = 64;
  Mdct mdct(m);
  Prng prng(17);
  std::vector<double> x(2 * m);
  for (auto& v : x) {
    v = prng.NextGaussian();
  }
  auto fast = mdct.Forward(x);
  auto direct = MdctForwardDirect(x, SineWindow(2 * m));
  ASSERT_EQ(fast.size(), m);
  for (size_t k = 0; k < m; ++k) {
    EXPECT_NEAR(fast[k], direct[k], 1e-9) << "bin " << k;
  }
}

TEST(MdctTest, FastInverseMatchesDirect) {
  const size_t m = 64;
  Mdct mdct(m);
  Prng prng(19);
  std::vector<double> coeffs(m);
  for (auto& v : coeffs) {
    v = prng.NextGaussian();
  }
  auto fast = mdct.Inverse(coeffs);
  auto direct = MdctInverseDirect(coeffs, SineWindow(2 * m));
  ASSERT_EQ(fast.size(), 2 * m);
  for (size_t n = 0; n < 2 * m; ++n) {
    EXPECT_NEAR(fast[n], direct[n], 1e-9) << "sample " << n;
  }
}

// Property sweep: TDAC perfect reconstruction at several block sizes.
class MdctTdac : public ::testing::TestWithParam<size_t> {};

TEST_P(MdctTdac, OverlapAddReconstructsExactly) {
  const size_t m = GetParam();
  Mdct mdct(m);
  Prng prng(23);
  const size_t blocks = 6;
  std::vector<double> signal(m * (blocks + 1));
  for (auto& v : signal) {
    v = prng.NextGaussian();
  }
  std::vector<double> recon(signal.size(), 0.0);
  for (size_t b = 0; b < blocks; ++b) {
    std::vector<double> slice(signal.begin() + static_cast<long>(b * m),
                              signal.begin() + static_cast<long>(b * m + 2 * m));
    auto coeffs = mdct.Forward(slice);
    auto out = mdct.Inverse(coeffs);
    for (size_t n = 0; n < 2 * m; ++n) {
      recon[b * m + n] += out[n];
    }
  }
  // The interior region [m, blocks*m) is fully overlapped and must match.
  for (size_t n = m; n < blocks * m; ++n) {
    EXPECT_NEAR(recon[n], signal[n], 1e-9) << "sample " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, MdctTdac,
                         ::testing::Values(16, 64, 256, 512));

// Oracle sweep: the plan-based fast path (fold + split-radix-style DCT-IV
// over two half-length FFTs) must agree with the direct O(N^2) formulas at
// every power-of-two size the codec could be configured with.
class MdctPlanOracle : public ::testing::TestWithParam<size_t> {};

TEST_P(MdctPlanOracle, ForwardAndInverseMatchDirectFormulas) {
  const size_t m = GetParam();
  Mdct mdct(m);
  Prng prng(m);
  const auto window = SineWindow(2 * m);

  std::vector<double> x(2 * m);
  for (auto& v : x) {
    v = prng.NextGaussian();
  }
  auto fast_fwd = mdct.Forward(x);
  auto direct_fwd = MdctForwardDirect(x, window);
  ASSERT_EQ(fast_fwd.size(), m);
  for (size_t k = 0; k < m; ++k) {
    ASSERT_NEAR(fast_fwd[k], direct_fwd[k], 1e-9) << "m=" << m << " bin " << k;
  }

  std::vector<double> coeffs(m);
  for (auto& v : coeffs) {
    v = prng.NextGaussian();
  }
  auto fast_inv = mdct.Inverse(coeffs);
  auto direct_inv = MdctInverseDirect(coeffs, window);
  ASSERT_EQ(fast_inv.size(), 2 * m);
  for (size_t n = 0; n < 2 * m; ++n) {
    ASSERT_NEAR(fast_inv[n], direct_inv[n], 1e-9)
        << "m=" << m << " sample " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSizes, MdctPlanOracle,
                         ::testing::Values(8, 16, 32, 64, 128, 256, 512, 1024,
                                           2048, 4096));

// ------------------------------------------------- Scalar transform oracle --
//
// The scalar radix-2 FFT and the two-FFT DCT-IV the codec's two-lane
// kernels must reproduce to the bit: one complex signal per FFT, a bit-
// reversal swap pass, and the even and odd DCT-IV halves as two separate
// transforms. Comparisons are memcmp, so a changed rounding, operation order
// or sign of zero anywhere fails.

class ScalarFft {
 public:
  explicit ScalarFft(size_t n) : n_(n), bitrev_(n) {
    size_t j = 0;
    for (size_t i = 1; i < n; ++i) {
      size_t bit = n >> 1;
      for (; j & bit; bit >>= 1) {
        j ^= bit;
      }
      j ^= bit;
      bitrev_[i] = j;
    }
    for (size_t len = 2; len <= n; len <<= 1) {
      const double base = -2.0 * std::numbers::pi / static_cast<double>(len);
      for (size_t k = 0; k < len / 2; ++k) {
        const double angle = base * static_cast<double>(k);
        twiddle_.emplace_back(std::cos(angle), std::sin(angle));
      }
    }
  }

  void Execute(std::complex<double>* data, bool inverse) const {
    for (size_t i = 1; i < n_; ++i) {
      if (i < bitrev_[i]) {
        std::swap(data[i], data[bitrev_[i]]);
      }
    }
    const double sign = inverse ? -1.0 : 1.0;
    const std::complex<double>* stage = twiddle_.data();
    for (size_t len = 2; len <= n_; len <<= 1) {
      const size_t half = len / 2;
      for (size_t i = 0; i < n_; i += len) {
        for (size_t k = 0; k < half; ++k) {
          const double wr = stage[k].real();
          const double wi = sign * stage[k].imag();
          const double ar = data[i + k].real();
          const double ai = data[i + k].imag();
          const double br = data[i + k + half].real();
          const double bi = data[i + k + half].imag();
          const double vr = br * wr - bi * wi;
          const double vi = br * wi + bi * wr;
          data[i + k] = {ar + vr, ai + vi};
          data[i + k + half] = {ar - vr, ai - vi};
        }
      }
      stage += half;
    }
    if (inverse) {
      const double scale = 1.0 / static_cast<double>(n_);
      for (size_t i = 0; i < n_; ++i) {
        data[i] *= scale;
      }
    }
  }

 private:
  size_t n_;
  std::vector<size_t> bitrev_;
  std::vector<std::complex<double>> twiddle_;
};

std::vector<double> ScalarDct4(const std::vector<double>& in) {
  constexpr double kPi = std::numbers::pi;
  const size_t m = in.size();
  const size_t k = m / 2;
  const double md = static_cast<double>(m);
  std::vector<std::complex<double>> even(k);
  std::vector<std::complex<double>> odd(k);
  for (size_t t = 0; t < k; ++t) {
    const double td = static_cast<double>(t);
    const double er = std::cos(-kPi * td / md);
    const double ei = std::sin(-kPi * td / md);
    const double or_ = std::cos(-3.0 * kPi * td / md);
    const double oi = std::sin(-3.0 * kPi * td / md);
    const double zr = in[2 * t];
    const double zi = in[m - 1 - 2 * t];
    even[t] = {zr * er - zi * ei, zr * ei + zi * er};
    odd[t] = {zr * or_ + zi * oi, zr * oi - zi * or_};
  }
  ScalarFft fft(k);
  fft.Execute(even.data(), false);
  fft.Execute(odd.data(), false);
  std::vector<double> out(m);
  for (size_t s = 0; s < k; ++s) {
    const double ae = -kPi * (4.0 * static_cast<double>(s) + 1.0) / (4.0 * md);
    const double ao = -kPi * (4.0 * static_cast<double>(s) + 3.0) / (4.0 * md);
    out[2 * s] = std::cos(ae) * even[s].real() - std::sin(ae) * even[s].imag();
    out[2 * s + 1] =
        std::cos(ao) * odd[s].real() - std::sin(ao) * odd[s].imag();
  }
  return out;
}

std::vector<double> ScalarMdctForward(const std::vector<double>& input) {
  const size_t m = input.size() / 2;
  const auto w = SineWindow(2 * m);
  std::vector<double> fold(m);
  for (size_t j = 0; j < m / 2; ++j) {
    fold[j] = -input[3 * m / 2 - 1 - j] * w[3 * m / 2 - 1 - j] -
              input[3 * m / 2 + j] * w[3 * m / 2 + j];
  }
  for (size_t j = m / 2; j < m; ++j) {
    fold[j] = input[j - m / 2] * w[j - m / 2] -
              input[3 * m / 2 - 1 - j] * w[3 * m / 2 - 1 - j];
  }
  return ScalarDct4(fold);
}

std::vector<double> ScalarMdctInverse(const std::vector<double>& coeffs) {
  const size_t m = coeffs.size();
  const auto w = SineWindow(2 * m);
  const std::vector<double> u = ScalarDct4(coeffs);
  std::vector<double> output(2 * m);
  for (size_t n = 0; n < m / 2; ++n) {
    output[n] = u[n + m / 2];
  }
  for (size_t n = m / 2; n < 3 * m / 2; ++n) {
    output[n] = -u[3 * m / 2 - 1 - n];
  }
  for (size_t n = 3 * m / 2; n < 2 * m; ++n) {
    output[n] = -u[n - 3 * m / 2];
  }
  const double scale = 2.0 / static_cast<double>(m);
  for (size_t n = 0; n < 2 * m; ++n) {
    output[n] *= scale * w[n];
  }
  return output;
}

// Inputs that stress rounding and the sign of zero.
enum class InputKind { kGaussian, kSignedZeroRuns, kSubnormal, kHuge, kZero };

std::vector<double> MakeInput(InputKind kind, size_t n, Prng* prng) {
  std::vector<double> v(n, 0.0);
  switch (kind) {
    case InputKind::kGaussian:
      for (auto& x : v) {
        x = prng->NextGaussian();
      }
      break;
    case InputKind::kSignedZeroRuns:
      // Runs of +0 or -0, with a nonzero value now and then.
      for (size_t i = 0; i < n;) {
        const size_t run = 1 + prng->NextBelow(9);
        const double zero = prng->NextBool(0.5) ? 0.0 : -0.0;
        for (size_t j = 0; j < run && i < n; ++j, ++i) {
          v[i] = zero;
        }
        if (i < n && prng->NextBool(0.3)) {
          v[i++] = prng->NextGaussian();
        }
      }
      break;
    case InputKind::kSubnormal:
      for (auto& x : v) {
        x = prng->NextBool(0.2) ? -0.0 : prng->NextGaussian() * 1e-310;
      }
      break;
    case InputKind::kHuge:
      for (auto& x : v) {
        x = (prng->NextBool(0.5) ? 1e300 : -1e300) *
            (0.5 + 0.5 * prng->NextDouble());
      }
      break;
    case InputKind::kZero:
      break;
  }
  return v;
}

constexpr InputKind kAllInputKinds[] = {
    InputKind::kGaussian, InputKind::kSignedZeroRuns, InputKind::kSubnormal,
    InputKind::kHuge, InputKind::kZero};

template <typename T>
bool BitIdentical(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

class TransformOracle : public ::testing::TestWithParam<size_t> {};

TEST_P(TransformOracle, Dct4AndMdctAreBitIdenticalToScalarReference) {
  const size_t m = GetParam();
  Dct4Plan dct4(m);
  Mdct mdct(m);
  Prng prng(1000 + m);
  for (InputKind kind : kAllInputKinds) {
    for (int rep = 0; rep < 3; ++rep) {
      const std::vector<double> x = MakeInput(kind, m, &prng);
      std::vector<double> got(m);
      dct4.Execute(x.data(), got.data());
      ASSERT_TRUE(BitIdentical(got, ScalarDct4(x)))
          << "Dct4 m=" << m << " kind " << static_cast<int>(kind);
      // In place (out aliases in).
      std::vector<double> in_place = x;
      dct4.Execute(in_place.data(), in_place.data());
      ASSERT_TRUE(BitIdentical(in_place, got)) << "in-place Dct4 m=" << m;

      const std::vector<double> block = MakeInput(kind, 2 * m, &prng);
      ASSERT_TRUE(BitIdentical(mdct.Forward(block), ScalarMdctForward(block)))
          << "Mdct::Forward m=" << m << " kind " << static_cast<int>(kind);
      ASSERT_TRUE(BitIdentical(mdct.Inverse(x), ScalarMdctInverse(x)))
          << "Mdct::Inverse m=" << m << " kind " << static_cast<int>(kind);
    }
  }
}

TEST_P(TransformOracle, FftAndIfftAreBitIdenticalToScalarReference) {
  const size_t n = GetParam();
  ScalarFft reference(n);
  Prng prng(2000 + n);
  for (InputKind kind : kAllInputKinds) {
    const std::vector<double> re = MakeInput(kind, n, &prng);
    const std::vector<double> im = MakeInput(kind, n, &prng);
    std::vector<std::complex<double>> x(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = {re[i], im[i]};
    }
    for (bool inverse : {false, true}) {
      auto want = x;
      reference.Execute(want.data(), inverse);
      auto got = x;
      inverse ? Ifft(&got) : Fft(&got);
      ASSERT_TRUE(BitIdentical(got, want))
          << (inverse ? "Ifft" : "Fft") << " n=" << n << " kind "
          << static_cast<int>(kind);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes8To4096, TransformOracle,
                         ::testing::Values(8, 16, 32, 64, 128, 256, 512, 1024,
                                           2048, 4096));

// -------------------------------------------------------------- Bitstream --

TEST(BitstreamTest, BitsRoundTrip) {
  BitWriter w;
  w.WriteBits(0b101, 3);
  w.WriteBits(0xFFFF, 16);
  w.WriteBits(0, 1);
  w.WriteBits(0x123456789ABCDEFull, 60);
  Bytes buf = w.Finish();

  BitReader r(buf);
  EXPECT_EQ(*r.ReadBits(3), 0b101u);
  EXPECT_EQ(*r.ReadBits(16), 0xFFFFu);
  EXPECT_EQ(*r.ReadBits(1), 0u);
  EXPECT_EQ(*r.ReadBits(60), 0x123456789ABCDEFull);
}

TEST(BitstreamTest, UnaryRoundTrip) {
  BitWriter w;
  for (uint32_t v : {0u, 1u, 5u, 31u}) {
    w.WriteUnary(v);
  }
  Bytes buf = w.Finish();
  BitReader r(buf);
  for (uint32_t v : {0u, 1u, 5u, 31u}) {
    EXPECT_EQ(*r.ReadUnary(), v);
  }
}

TEST(BitstreamTest, ReadPastEndFails) {
  BitWriter w;
  w.WriteBits(0xA, 4);
  Bytes buf = w.Finish();  // One byte after padding.
  BitReader r(buf);
  EXPECT_TRUE(r.ReadBits(8).ok());
  EXPECT_FALSE(r.ReadBits(8).ok());
}

TEST(BitstreamTest, UnaryRunLimitStopsCorruptInput) {
  Bytes all_ones(1024, 0xFF);
  BitReader r(all_ones);
  EXPECT_FALSE(r.ReadUnary(100).ok());
}

TEST(BitstreamTest, ZeroBitWriteIsNoOp) {
  BitWriter w;
  w.WriteBits(0xFF, 0);
  w.WriteBits(1, 1);
  Bytes buf = w.Finish();
  BitReader r(buf);
  EXPECT_EQ(*r.ReadBits(1), 1u);
}

// Bit-at-a-time references for the word-at-a-time BitWriter/BitReader.
class ReferenceBitWriter {
 public:
  void WriteBits(uint64_t value, int bits) {
    for (int b = bits - 1; b >= 0; --b) {
      Push(((value >> b) & 1) != 0);
    }
  }
  void WriteUnary(uint32_t count) {
    for (uint32_t i = 0; i < count; ++i) {
      Push(true);
    }
    Push(false);
  }
  // Zero-pads the last byte, like BitWriter::Flush.
  void Pad() { used_ = 0; }
  const Bytes& bytes() const { return buf_; }

 private:
  void Push(bool bit) {
    if (used_ == 0) {
      buf_.push_back(0);
    }
    if (bit) {
      buf_.back() |= static_cast<uint8_t>(0x80 >> used_);
    }
    used_ = (used_ + 1) % 8;
  }

  Bytes buf_;
  int used_ = 0;
};

// The unary reader's contract, a byte at a time: on an over-long run it
// stops at the first byte boundary (or the terminating zero) where the run
// exceeds max_run; past the end of the data it reports OUT_OF_RANGE.
StatusCode ReferenceReadUnary(const Bytes& data, size_t* pos,
                              uint32_t max_run, uint32_t* out) {
  const size_t end = data.size() * 8;
  uint32_t count = 0;
  for (;;) {
    if (*pos >= end) {
      return StatusCode::kOutOfRange;
    }
    const bool one = (data[*pos >> 3] >> (7 - (*pos & 7))) & 1;
    ++*pos;
    if (!one) {
      *out = count;
      return count > max_run ? StatusCode::kDataLoss : StatusCode::kOk;
    }
    ++count;
    if (*pos % 8 == 0 && count > max_run) {
      return StatusCode::kDataLoss;
    }
  }
}

struct Field {
  bool unary;
  uint64_t value;  // Unary: the count. Bits: may carry junk above `bits`.
  int bits;
};

uint64_t LowBits(uint64_t value, int bits) {
  return bits == 64 ? value : value & ((uint64_t{1} << bits) - 1);
}

std::vector<Field> RandomFields(Prng* prng, size_t count) {
  std::vector<Field> fields;
  for (size_t i = 0; i < count; ++i) {
    if (prng->NextBool(0.25)) {
      fields.push_back({true, prng->NextBelow(prng->NextBool(0.1) ? 200 : 12),
                        0});
    } else {
      fields.push_back({false, prng->NextU64(),
                        static_cast<int>(prng->NextBelow(65))});
    }
  }
  return fields;
}

TEST(BitstreamTest, WriterMatchesBitAtATimeReference) {
  Prng prng(41);
  BitWriter w;
  for (int round = 0; round < 300; ++round) {
    const std::vector<Field> fields = RandomFields(&prng, prng.NextBelow(60));
    ReferenceBitWriter ref;
    w.Clear();
    for (const Field& f : fields) {
      if (f.unary) {
        w.WriteUnary(static_cast<uint32_t>(f.value));
        ref.WriteUnary(static_cast<uint32_t>(f.value));
      } else {
        w.WriteBits(f.value, f.bits);
        ref.WriteBits(f.value, f.bits);
      }
      // A mid-stream Flush pads to a byte boundary; writing continues there.
      if (prng.NextBool(0.02)) {
        w.Flush();
        ref.Pad();
      }
    }
    ASSERT_EQ(w.Flush(), ref.bytes()) << "round " << round;
    ASSERT_EQ(w.Flush(), ref.bytes()) << "Flush is idempotent";
  }
}

TEST(BitstreamTest, EveryFieldWidthRoundTripsAtEveryAlignment) {
  Prng prng(43);
  for (int lead = 0; lead < 8; ++lead) {
    for (int bits = 0; bits <= 64; ++bits) {
      const uint64_t value = prng.NextU64();
      BitWriter w;
      ReferenceBitWriter ref;
      w.WriteBits(0, lead);
      ref.WriteBits(0, lead);
      w.WriteBits(value, bits);
      ref.WriteBits(value, bits);
      const Bytes buf = w.Finish();
      ASSERT_EQ(buf, ref.bytes()) << "lead " << lead << " bits " << bits;
      BitReader r(buf);
      ASSERT_EQ(*r.ReadBits(lead), 0u);
      ASSERT_EQ(*r.ReadBits(bits), LowBits(value, bits))
          << "lead " << lead << " bits " << bits;
    }
  }
}

TEST(BitstreamTest, ReaderRoundTripsRandomFieldsIncludingTheTail) {
  Prng prng(47);
  for (int round = 0; round < 300; ++round) {
    const std::vector<Field> fields = RandomFields(&prng, prng.NextBelow(40));
    ReferenceBitWriter ref;
    for (const Field& f : fields) {
      f.unary ? ref.WriteUnary(static_cast<uint32_t>(f.value))
              : ref.WriteBits(f.value, f.bits);
    }
    // Fields in the last eight bytes take the byte-at-a-time path.
    BitReader r(ref.bytes());
    for (const Field& f : fields) {
      if (f.unary) {
        Result<uint32_t> got = r.ReadUnary();
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(*got, f.value) << "round " << round;
      } else {
        Result<uint64_t> got = r.ReadBits(f.bits);
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(*got, LowBits(f.value, f.bits)) << "round " << round;
      }
    }
    EXPECT_LT(r.bits_remaining(), 8u);
  }
}

// A reader over `data` that has consumed its first `pos` bits.
BitReader ReaderAt(const Bytes& data, size_t pos) {
  BitReader r(data);
  while (pos > 0) {
    const int step = static_cast<int>(std::min<size_t>(pos, 56));
    EXPECT_TRUE(r.ReadBits(step).ok());
    pos -= static_cast<size_t>(step);
  }
  return r;
}

TEST(BitstreamTest, TruncatedReadFailsWithoutMoving) {
  Prng prng(53);
  for (size_t len = 0; len <= 20; ++len) {
    Bytes data(len);
    for (auto& b : data) {
      b = static_cast<uint8_t>(prng.NextBelow(256));
    }
    for (size_t start = 0; start <= len * 8; ++start) {
      for (int bits = 0; bits <= 64; ++bits) {
        BitReader r = ReaderAt(data, start);
        const size_t before = r.bits_remaining();
        Result<uint64_t> got = r.ReadBits(bits);
        if (static_cast<size_t>(bits) > before) {
          ASSERT_FALSE(got.ok());
          EXPECT_EQ(got.status().code(), StatusCode::kOutOfRange);
          EXPECT_EQ(r.bits_remaining(), before);
        } else {
          ASSERT_TRUE(got.ok());
          EXPECT_EQ(r.bits_remaining(), before - static_cast<size_t>(bits));
        }
      }
    }
  }
}

TEST(BitstreamTest, UnaryErrorsAndPositionsMatchTheByteContract) {
  Prng prng(59);
  for (int round = 0; round < 3000; ++round) {
    // Mostly 0xFF bytes: long runs, some ending inside the data, some not.
    Bytes data(prng.NextBelow(40));
    for (auto& b : data) {
      b = prng.NextBool(0.8) ? 0xFF : static_cast<uint8_t>(prng.NextBelow(256));
    }
    const size_t start = prng.NextBelow(data.size() * 8 + 1);
    const auto max_run = static_cast<uint32_t>(prng.NextBelow(300));
    size_t want_pos = start;
    uint32_t want = 0;
    const StatusCode want_code =
        ReferenceReadUnary(data, &want_pos, max_run, &want);

    BitReader r = ReaderAt(data, start);
    Result<uint32_t> got = r.ReadUnary(max_run);
    ASSERT_EQ(got.ok() ? StatusCode::kOk : got.status().code(), want_code)
        << "round " << round;
    if (got.ok()) {
      EXPECT_EQ(*got, want);
    }
    EXPECT_EQ(r.bits_remaining(), data.size() * 8 - want_pos)
        << "round " << round;
  }
}

// ------------------------------------------------------------------ Rice --

TEST(RiceTest, ZigzagBijection) {
  for (int64_t v : {0ll, 1ll, -1ll, 2ll, -2ll, 1000000ll, -1000000ll}) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
  EXPECT_EQ(ZigzagEncode(0), 0u);
  EXPECT_EQ(ZigzagEncode(-1), 1u);
  EXPECT_EQ(ZigzagEncode(1), 2u);
}

class RiceRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(RiceRoundTrip, ValuesSurvive) {
  const int k = GetParam();
  BitWriter w;
  std::vector<int64_t> values = {0, 1, -1, 100, -100, 12345, -54321};
  for (int64_t v : values) {
    RiceEncode(&w, v, k);
  }
  Bytes buf = w.Finish();
  BitReader r(buf);
  for (int64_t v : values) {
    Result<int64_t> got = RiceDecode(&r, k);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, RiceRoundTrip, ::testing::Values(0, 1, 4, 8, 15));

TEST(RiceTest, BlockRoundTripRandom) {
  Prng prng(37);
  std::vector<int32_t> values(500);
  for (auto& v : values) {
    v = static_cast<int32_t>(prng.NextInRange(-2000, 2000));
  }
  BitWriter w;
  RiceEncodeBlock(&w, values);
  Bytes buf = w.Finish();
  BitReader r(buf);
  Result<std::vector<int32_t>> got = RiceDecodeBlock(&r, values.size());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, values);
}

TEST(RiceTest, AllZerosCompressTo1BitEach) {
  std::vector<int32_t> zeros(1000, 0);
  BitWriter w;
  RiceEncodeBlock(&w, zeros);
  Bytes buf = w.Finish();
  // k=0 header (5 bits) + 1000 unary zeros = ~126 bytes.
  EXPECT_LE(buf.size(), 130u);
}

TEST(RiceTest, ParameterEstimatorTracksMagnitude) {
  std::vector<int32_t> small(100, 1);
  std::vector<int32_t> large(100, 10000);
  EXPECT_LT(EstimateRiceParameter(small), EstimateRiceParameter(large));
}

TEST(RiceTest, TruncatedBlockFails) {
  std::vector<int32_t> values(100, 777);
  BitWriter w;
  RiceEncodeBlock(&w, values);
  Bytes buf = w.Finish();
  buf.resize(buf.size() / 2);
  BitReader r(buf);
  EXPECT_FALSE(RiceDecodeBlock(&r, values.size()).ok());
}

// -------------------------------------------------------------- Psymodel --

TEST(PsymodelTest, BarkScaleIsMonotone) {
  double prev = HzToBark(20.0);
  for (double hz = 40.0; hz < 22050.0; hz *= 1.3) {
    double bark = HzToBark(hz);
    EXPECT_GT(bark, prev);
    prev = bark;
  }
  EXPECT_NEAR(HzToBark(1000.0), 8.5, 0.6);  // ~8.5 Bark at 1 kHz.
}

TEST(PsymodelTest, BandLayoutCoversAllBins) {
  BandLayout layout = MakeBandLayout(44100, 512);
  EXPECT_EQ(layout.band_begin.front(), 0u);
  EXPECT_EQ(layout.band_begin.back(), 512u);
  for (size_t b = 0; b + 1 < layout.band_begin.size(); ++b) {
    EXPECT_LT(layout.band_begin[b], layout.band_begin[b + 1]);
  }
  // Roughly the number of critical bands below 22 kHz.
  EXPECT_GE(layout.num_bands(), 18u);
  EXPECT_LE(layout.num_bands(), 28u);
}

TEST(PsymodelTest, HigherQualityMeansFinerSteps) {
  Prng prng(41);
  std::vector<double> coeffs(512);
  for (auto& c : coeffs) {
    c = prng.NextGaussian() * 0.1;
  }
  BandLayout layout = MakeBandLayout(44100, 512);
  auto steps_low = ComputeQuantSteps(coeffs, layout, 44100, 0);
  auto steps_high = ComputeQuantSteps(coeffs, layout, 44100, 10);
  ASSERT_EQ(steps_low.size(), layout.num_bands());
  for (size_t b = 0; b < steps_low.size(); ++b) {
    EXPECT_GT(steps_low[b], 0.0);
    EXPECT_GT(steps_high[b], 0.0);
    // Quality never makes steps coarser anywhere...
    EXPECT_LE(steps_high[b], steps_low[b]) << "band " << b;
    // ...and strictly refines them where masking (not the quality-
    // independent absolute threshold of hearing) is the binding limit,
    // i.e. below ~10 kHz for this content.
    size_t mid_bin = (layout.band_begin[b] + layout.band_begin[b + 1]) / 2;
    double center_hz = static_cast<double>(mid_bin) * 22050.0 / 512.0;
    if (center_hz < 10000.0) {
      EXPECT_LT(steps_high[b], steps_low[b]) << "band " << b;
    }
  }
}

TEST(PsymodelTest, LoudBandGetsCoarserStepThanQuietBand) {
  BandLayout layout = MakeBandLayout(44100, 512);
  std::vector<double> coeffs(512, 1e-6);
  // Make band 5 loud.
  for (size_t i = layout.band_begin[5]; i < layout.band_begin[6]; ++i) {
    coeffs[i] = 0.5;
  }
  auto steps = ComputeQuantSteps(coeffs, layout, 44100, 8);
  EXPECT_GT(steps[5], steps[12] * 10.0);
}

TEST(PsymodelTest, SilenceHitsAbsoluteThresholdFloor) {
  BandLayout layout = MakeBandLayout(44100, 512);
  std::vector<double> silence(512, 0.0);
  auto steps = ComputeQuantSteps(silence, layout, 44100, 10);
  for (double s : steps) {
    EXPECT_GT(s, 0.0);  // Absolute threshold keeps steps finite and nonzero.
  }
}

}  // namespace
}  // namespace espk
