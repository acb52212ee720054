#include "perfbench/probe.h"

#include <time.h>

namespace espk::perfbench {
namespace {

constexpr int kComputeFloats = 2048;  // 8 KiB: stays in L1.
constexpr int kComputeRounds = 64;
constexpr size_t kTableEntries = size_t{1} << 26;  // 256 MiB of uint32_t.
constexpr int kUpdatesPerRun = 20000;

double ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

}  // namespace

HostProbe::HostProbe(ProbeKind kind) : kind_(kind) {
  if (kind_ == ProbeKind::kCompute) {
    data_.resize(kComputeFloats);
    for (int i = 0; i < kComputeFloats; ++i) {
      data_[static_cast<size_t>(i)] = 1.0f + 1e-4f * static_cast<float>(i % 13);
    }
    return;
  }
  // Zero-filled, so every page is resident before the first run.
  table_.assign(kTableEntries, 0);
}

double HostProbe::RunNs() {
  const double t0 = ThreadCpuNs();
  if (kind_ == ProbeKind::kCompute) {
    // Eight independent multiply-add chains: bound by the core's float
    // throughput, which a busy sibling hyperthread shares.
    const float* d = data_.data();
    float acc[8] = {};
    for (int r = 0; r < kComputeRounds; ++r) {
      for (int i = 0; i < kComputeFloats; i += 8) {
        for (int k = 0; k < 8; ++k) {
          acc[k] = acc[k] * 0.999f +
                   d[i + k] * d[(i + k + r) & (kComputeFloats - 1)];
        }
      }
    }
    for (float a : acc) {
      sink_ += a;  // Keeps the result, and so the loop, observable.
    }
  } else {
    // Addresses do not depend on loaded values, so many cache misses are in
    // flight at once, as when a packet fans out to thousands of speakers.
    uint64_t x = state_;
    for (int i = 0; i < kUpdatesPerRun; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      ++table_[(x >> 20) & (kTableEntries - 1)];
    }
    state_ = x;
  }
  return ThreadCpuNs() - t0;
}

double HostProbe::reference_ns() const {
  return kind_ == ProbeKind::kCompute ? 88'000.0 : 860'000.0;
}

size_t HostProbe::resident_bytes() const {
  return data_.size() * sizeof(float) + table_.size() * sizeof(uint32_t);
}

}  // namespace espk::perfbench
