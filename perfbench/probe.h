// Host-speed probes. The end-to-end run times a fixed kernel after every
// window, on the thread that drives the windows, and scales the windows'
// CPU times by how fast the kernel ran, so that a shared host's changing
// speed cancels from the gated metrics. NOTES.md ("Noise on a shared host")
// records how each kernel was chosen and how well it follows its workload.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace espk::perfbench {

// The host resource that bounds a workload, and so the kernel that follows
// its speed.
enum class ProbeKind {
  kCompute,  // Independent float multiply-adds over an L1-resident array.
  kMemory,   // Independent read-modify-writes at random places in 256 MiB.
};

class HostProbe {
 public:
  explicit HostProbe(ProbeKind kind);

  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  // Runs the kernel once and returns the calling thread's CPU ns for it.
  double RunNs();

  // The fixed point of the scale: the kernel's typical CPU ns on the
  // reference host (4-vCPU Xeon guest, g++ 12.2 Release). With probe share 1
  // (WorkloadSpec::probe_share), a window that ran while the kernel took
  // twice as long is counted at half its time.
  double reference_ns() const;

  // Bytes the probe keeps resident, which the process's peak RSS includes.
  size_t resident_bytes() const;

 private:
  ProbeKind kind_;
  std::vector<float> data_;       // kCompute.
  std::vector<uint32_t> table_;   // kMemory.
  uint64_t state_ = 0x9e3779b97f4a7c15ull;  // kMemory: address generator.
  float sink_ = 0.0f;
};

}  // namespace espk::perfbench

#endif  // PERFBENCH_PROBE_H_
