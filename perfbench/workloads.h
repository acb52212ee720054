// The benchmark's workloads: each is a fleet built through the public
// EthernetSpeakerSystem API and driven as a batch — the simulated players
// are the load, and the benchmark advances simulated time in fixed windows.
// NOTES.md records why each workload exists and which layers it stresses.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/probe.h"
#include "perfbench/spans.h"
#include "src/base/prng.h"
#include "src/core/system.h"

namespace espk::perfbench {

struct WorkloadSpec {
  std::string name;
  int channels = 1;
  int speakers = 1;
  int zones = 1;
  int threads = 1;
  AudioConfig config = AudioConfig::CdQuality();
  CodecId codec = CodecId::kRaw;
  int quality = 10;
  int64_t packet_frames = 1024;
  int64_t chunk_frames = 4410;  // Player write size.
  double decode_speed_factor = 0.25;
  double loss_probability = 0.0;
  SimDuration jitter = 0;
  SimDuration join_latency = 0;
  bool planes = false;  // EnableSpanTracing + EnableHealthMonitoring.
  bool churn = false;   // One speaker re-subscribes per window.
  // The kernel whose speed scales the window times (see probe.h), and the
  // share of the workload's CPU time that runs at that kernel's speed: a
  // window's time is divided by 1 - share + share * probe / reference.
  ProbeKind probe = ProbeKind::kCompute;
  double probe_share = 1.0;
  // One pass: warm-up (untimed), then `windows` timed windows of `window`.
  SimDuration warmup = Milliseconds(250);
  SimDuration window = Milliseconds(100);
  int windows = 100;

  SimTime end() const { return warmup + window * windows; }
};

// Null when `name` is not a workload.
const WorkloadSpec* FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& AllWorkloads();

// Per-fleet variations the traced run and the checks need; the end-to-end
// runs use the defaults.
struct FleetOptions {
  int threads = -1;          // -1: the spec's executor width.
  bool with_speakers = true;  // false: producers only.
  bool with_planes = true;    // false: the spec's planes stay off.
  SpanLog* spans = nullptr;   // Setup calls are recorded when non-null.
};

// One assembled fleet. The constructor is the set-up that `setup_s` times:
// system construction through channels, speakers, players and planes,
// up to (not including) the first RunUntil.
class Fleet {
 public:
  Fleet(const WorkloadSpec& spec, uint64_t seed, const FleetOptions& options);

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  EthernetSpeakerSystem* system() { return system_.get(); }
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  // Host ns of each AddSpeaker call made during set-up.
  const std::vector<double>& add_speaker_ns() const { return add_speaker_ns_; }

  // One churn step: the next speaker in a seeded order leaves its stream
  // and joins a seeded other one.
  // Appends each call's host ns to `call_ns`. Returns false (and sets
  // error()) if a call fails.
  bool Churn(std::vector<double>* call_ns);

  // Stream-name of channel `c`.
  static std::string ChannelName(int c) { return "ch-" + std::to_string(c); }

 private:
  WorkloadSpec spec_;
  std::unique_ptr<EthernetSpeakerSystem> system_;
  std::vector<int> speaker_channel_;  // Current stream of each speaker.
  Prng churn_prng_;
  std::vector<size_t> churn_order_;  // Seeded permutation of speakers.
  uint64_t churn_steps_ = 0;
  std::vector<double> add_speaker_ns_;
  std::string error_;
};

// Seeds for the workload's generators, segment and churn order, all derived
// from the one workload seed (SplitMix64 streams).
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

}  // namespace espk::perfbench

#endif  // PERFBENCH_WORKLOADS_H_
