// espk_perfbench: runs one workload of the repository benchmark and prints
// its metrics as one JSON line. perfbench/run.py builds this binary, runs
// it, checks the digest against perfbench/digests.json and prints the
// benchmark's result line; see perfbench/NOTES.md.
//
//   espk_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <path>]
//   espk_perfbench --workload <name> --seed <n> --digest-only
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that measures the per-layer metrics. --digest-only runs one
// pass and prints only its digest (for recording digests.json).
//
// The same source builds two binaries: espk_perfbench runs --trace 0 with
// the system's own allocator, and espk_perfbench_traced (built with
// ESPK_PERFBENCH_TRACED and bench/alloc_hook.cc) runs --trace 1, the only
// run that counts allocations.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/digest.h"
#include "perfbench/layers.h"
#include "perfbench/probe.h"
#include "perfbench/spans.h"
#include "perfbench/stats.h"
#include "perfbench/workloads.h"

#ifdef ESPK_PERFBENCH_TRACED
#include "bench/alloc_hook.h"
#else
#define ESPK_PERFBENCH_TRACED 0
#endif

#ifndef ESPK_PERFBENCH_BUILD_TYPE
#define ESPK_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace espk::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Host CPU ns used so far by every thread of this process. The guest
// kernel leaves out the time its vCPUs were runnable but descheduled by the
// hypervisor (steal), which wall time includes; see NOTES.md.
double ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

// Steal time of all vCPUs so far, in ns, from /proc/stat (0 if unreadable).
double StealNs() {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return 0.0;
  }
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(v[7]) * 1e9 /
                      static_cast<double>(sysconf(_SC_CLK_TCK))
                : 0.0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// A fixed integer kernel timed in this process, so figures from different
// hosts can be compared as ratios. Median of 7 repetitions, in CPU ns.
double CalibrationNs() {
  std::vector<double> reps;
  volatile uint64_t sink = 0;
  for (int r = 0; r < 7; ++r) {
    const double t0 = ProcessCpuNs();
    uint64_t x = 0x243f6a8885a308d3ull;
    uint64_t acc = 0;
    for (int i = 0; i < (1 << 22); ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      acc ^= (x >> 29) * 0x9e3779b97f4a7c15ull;
    }
    sink = sink + acc;
    reps.push_back(ProcessCpuNs() - t0);
  }
  return Median(reps);
}

// Heap allocations so far, all threads; 0 in the untraced binary, which
// does not link the counting allocator.
uint64_t Allocations() {
#if ESPK_PERFBENCH_TRACED
  return bench::AllocCount();
#else
  return 0;
#endif
}

// Counters read at the start and end of the timed windows.
struct Snapshot {
  uint64_t deliveries = 0;
  uint64_t deliveries_lost = 0;
  uint64_t queue_drops = 0;
  uint64_t packets_sent = 0;
  uint64_t data_packets_sent = 0;
  uint64_t speaker_deliveries = 0;  // Datagrams handed to speakers.
  uint64_t missed = 0;  // Owed chunks not played (see Snap).
  uint64_t chunks_played = 0;
  uint64_t late_drops = 0;
  uint64_t overflow_drops = 0;
  uint64_t events = 0;
  uint64_t messages = 0;
  uint64_t epochs = 0;
  uint64_t ring_spills = 0;
  uint64_t context_switches = 0;
  uint64_t trace_recorded = 0;
  uint64_t trace_dropped = 0;
  uint64_t allocs = 0;
  uint64_t payload_copies = 0;

  Snapshot operator-(const Snapshot& o) const {
    Snapshot d;
    d.deliveries = deliveries - o.deliveries;
    d.deliveries_lost = deliveries_lost - o.deliveries_lost;
    d.queue_drops = queue_drops - o.queue_drops;
    d.packets_sent = packets_sent - o.packets_sent;
    d.data_packets_sent = data_packets_sent - o.data_packets_sent;
    d.speaker_deliveries = speaker_deliveries - o.speaker_deliveries;
    d.missed = missed - o.missed;
    d.chunks_played = chunks_played - o.chunks_played;
    d.late_drops = late_drops - o.late_drops;
    d.overflow_drops = overflow_drops - o.overflow_drops;
    d.events = events - o.events;
    d.messages = messages - o.messages;
    d.epochs = epochs - o.epochs;
    d.ring_spills = ring_spills - o.ring_spills;
    d.context_switches = context_switches - o.context_switches;
    d.trace_recorded = trace_recorded - o.trace_recorded;
    d.trace_dropped = trace_dropped - o.trace_dropped;
    d.allocs = allocs - o.allocs;
    d.payload_copies = payload_copies - o.payload_copies;
    return d;
  }
};

Snapshot Snap(EthernetSpeakerSystem* system) {
  Snapshot s;
  const SegmentStats& lan = system->lan()->stats();
  s.deliveries = lan.deliveries;
  s.deliveries_lost = lan.deliveries_lost;
  s.queue_drops = lan.packets_dropped_queue;
  s.packets_sent = lan.packets_sent;
  // Chunks owed but not played: drops at the speaker plus per-receiver
  // link losses.
  s.missed = lan.deliveries_lost;
  for (const auto& speaker : system->speakers()) {
    const SpeakerStats& st = speaker->stats();
    s.missed += st.late_drops + st.overflow_drops + st.duplicate_drops +
                st.decode_errors + st.bad_packets;
    s.chunks_played += st.chunks_played;
    s.speaker_deliveries += st.packets_received;
    s.late_drops += st.late_drops;
    s.overflow_drops += st.overflow_drops;
  }
  for (int z = 0; z < system->zones(); ++z) {
    s.events += system->zone_sim(z)->events_processed();
  }
  for (const auto& channel : system->channels()) {
    s.data_packets_sent += channel->rebroadcaster->stats().data_packets;
  }
  s.messages = system->shards()->messages_posted();
  s.epochs = system->shards()->epochs_run();
  s.ring_spills = system->shards()->ring_spills();
  s.context_switches = system->kernel()->stats().context_switches;
  s.trace_recorded = system->tracer()->recorded();
  s.trace_dropped = system->tracer()->dropped();
  s.allocs = Allocations();
  s.payload_copies = buffer_counters().payload_copies;
  return s;
}

// Sums per-zone epoch wall stats at every barrier and, when tracing,
// records each zone's run phase as a span under the current window.
class EpochHook : public ShardGroup::BarrierHook {
 public:
  EpochHook(int zones, SpanLog* spans) : zones_(zones), spans_(spans) {}

  void OnBarrier(const ShardGroup::EpochRecord& record) override {
    const int64_t now = SpanLog::NowNs();
    for (int z = 0; z < zones_; ++z) {
      const ShardGroup::ZoneEpochStats& st = record.zones[z];
      run_ns_ += st.run_wall_ns;
      wait_ns_ += st.barrier_wait_ns;
      if (spans_ != nullptr) {
        // The run phase ended barrier_wait before the barrier closed; the
        // drain between barrier and this callback is not separated out.
        const auto end = now - static_cast<int64_t>(st.barrier_wait_ns);
        spans_->Add("sim.epoch_run",
                    end - static_cast<int64_t>(st.run_wall_ns), end);
      }
    }
  }

  uint64_t run_ns() const { return run_ns_; }
  uint64_t wait_ns() const { return wait_ns_; }

 private:
  int zones_;
  SpanLog* spans_;
  uint64_t run_ns_ = 0;
  uint64_t wait_ns_ = 0;
};

struct PassOptions {
  int threads = -1;
  bool with_planes = true;
  bool timed_windows = true;  // false: set up only.
  bool epoch_hook = false;
  SpanLog* spans = nullptr;
  HostProbe* probe = nullptr;  // Run after every timed window when set.
};

struct PassResult {
  std::string error;
  double setup_s = 0.0;  // Host CPU seconds.
  std::vector<double> window_cpu_ms;  // Host CPU, all threads.
  double timed_ns = 0.0;              // Wall.
  double timed_cpu_ns = 0.0;
  double steal_ns = 0.0;  // All vCPUs, over the timed windows.
  std::vector<double> probe_ns;  // One probe run after each window.
  Snapshot delta;  // Over the timed windows.
  Observation observation;
  double retained_pcm_mb = 0.0;
  std::vector<double> add_speaker_ns;
  std::vector<double> churn_call_ns;
  uint64_t operations = 0;  // RunUntil windows + churn calls.
  uint64_t epoch_run_ns = 0;
  uint64_t epoch_wait_ns = 0;

  double ns_per_delivery() const { return PerDelivery(timed_ns); }
  double cpu_ns_per_delivery() const { return PerDelivery(timed_cpu_ns); }

 private:
  double PerDelivery(double ns) const {
    return delta.deliveries == 0
               ? 0.0
               : ns / static_cast<double>(delta.deliveries);
  }
};

PassResult RunPass(const WorkloadSpec& spec, uint64_t seed,
                   const PassOptions& options) {
  PassResult r;
  SpanLog* spans = options.spans;
  FleetOptions fleet_options;
  fleet_options.threads = options.threads;
  fleet_options.with_planes = options.with_planes;
  fleet_options.spans = spans;

  std::unique_ptr<Fleet> fleet;
  {
    ScopedSpan span(spans, "setup");
    const double cpu0 = ProcessCpuNs();
    fleet = std::make_unique<Fleet>(spec, seed, fleet_options);
    r.setup_s = (ProcessCpuNs() - cpu0) / 1e9;
  }
  if (!fleet->ok()) {
    r.error = fleet->error();
    return r;
  }
  r.add_speaker_ns = fleet->add_speaker_ns();
  if (!options.timed_windows) {
    return r;
  }
  EthernetSpeakerSystem* system = fleet->system();
  std::unique_ptr<EpochHook> hook;
  if (options.epoch_hook && system->is_sharded()) {
    hook = std::make_unique<EpochHook>(system->zones(), spans);
    system->shards()->AddBarrierHook(hook.get());
  }
  {
    ScopedSpan span(spans, "warmup");
    system->RunUntil(spec.warmup);
  }
  const Snapshot before = Snap(system);
  const uint64_t hook_run0 = hook ? hook->run_ns() : 0;
  const uint64_t hook_wait0 = hook ? hook->wait_ns() : 0;
  r.window_cpu_ms.reserve(static_cast<size_t>(spec.windows));
  const double steal0 = StealNs();
  for (int w = 0; w < spec.windows; ++w) {
    ScopedSpan span(spans, "window");
    const auto t0 = Clock::now();
    const double cpu0 = ProcessCpuNs();
    if (spec.churn) {
      ScopedSpan churn(spans, "mgmt.churn");
      const size_t calls = r.churn_call_ns.size();
      const bool ok = fleet->Churn(&r.churn_call_ns);
      r.operations += r.churn_call_ns.size() - calls;
      if (!ok) {
        r.error = fleet->error();
        break;
      }
    }
    system->RunUntil(spec.warmup + spec.window * (w + 1));
    ++r.operations;
    const double cpu_ns = ProcessCpuNs() - cpu0;
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    r.window_cpu_ms.push_back(cpu_ns / 1e6);
    r.timed_ns += ns;
    r.timed_cpu_ns += cpu_ns;
    if (options.probe != nullptr) {
      r.probe_ns.push_back(options.probe->RunNs());
    }
  }
  r.steal_ns = StealNs() - steal0;
  r.delta = Snap(system) - before;
  if (hook) {
    r.epoch_run_ns = hook->run_ns() - hook_run0;
    r.epoch_wait_ns = hook->wait_ns() - hook_wait0;
    system->shards()->RemoveBarrierHook(hook.get());
  }
  if (!r.error.empty()) {
    return r;
  }
  r.observation = Observe(system, spec.end());
  size_t retained_floats = 0;
  for (const auto& speaker : system->speakers()) {
    for (GroupId group : speaker->subscriptions()) {
      // A session has no recorder until its first control packet.
      const OutputRecorder* out = speaker->session(group)->output();
      if (out == nullptr) {
        continue;
      }
      for (const auto& segment : out->segments()) {
        retained_floats += segment.samples.size();
      }
    }
  }
  r.retained_pcm_mb =
      static_cast<double>(retained_floats * sizeof(float)) / (1024.0 * 1024.0);
  return r;
}

// ------------------------------------------------------------ output --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else {
      out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
    }
  }
  out.push_back('"');
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(const std::string& workload, uint64_t seed, int trace,
                 const std::string& digest,
                 const std::vector<std::string>& failures,
                 uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"digest\":%s,"
              "\"failures\":[",
              JsonString(workload).c_str(),
              static_cast<unsigned long long>(seed), trace,
              JsonString(digest).c_str());
  for (size_t i = 0; i < failures.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ",", JsonString(failures[i]).c_str());
  }
  std::printf("],\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s%s:{\"value\":%s,\"unit\":%s}", i == 0 ? "" : ",",
                JsonString(metrics[i].name).c_str(),
                JsonNumber(metrics[i].value).c_str(),
                JsonString(metrics[i].unit).c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void PrintHost() {
  std::printf("host.calib_ns=%.0f host.build_type=%s host.compiler=%s "
              "host.nproc=%u\n",
              CalibrationNs(), ESPK_PERFBENCH_BUILD_TYPE,
              JsonString(__VERSION__).c_str(),
              std::thread::hardware_concurrency());
}

// Checks every pass of this process against the first, and that the fleet
// did what it should: every subscribed speaker played, speakers aligned.
void CheckPasses(const std::vector<const PassResult*>& passes,
                 std::vector<std::string>* failures) {
  const Observation& first = passes.front()->observation;
  for (const PassResult* p : passes) {
    if (p->observation.digest != first.digest) {
      failures->push_back("digest differs between passes of one seed: " +
                          DigestHex(first.digest) + " vs " +
                          DigestHex(p->observation.digest));
    }
  }
  if (first.speakers_silent != 0) {
    failures->push_back(std::to_string(first.speakers_silent) +
                        " subscribed speakers played nothing");
  }
  if (first.chunks_played == 0 || passes.front()->delta.deliveries == 0) {
    failures->push_back("nothing was delivered or played");
  }
  if (first.sync_pairs == 0) {
    failures->push_back("no speaker pair to measure sync on");
  }
}

double MissRatio(const Snapshot& d) {
  const uint64_t attempted = d.deliveries + d.deliveries_lost;
  return attempted == 0 ? 0.0
                        : static_cast<double>(d.missed) /
                              static_cast<double>(attempted);
}

int RunEndToEnd(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  PrintHost();
  std::vector<std::string> failures;
  std::vector<PassResult> passes;
  HostProbe probe(spec.probe);
  PassOptions timed;
  timed.probe = &probe;
  const auto t0 = Clock::now();
  // Whole passes until the budget is spent; at least two, so the
  // pass-to-pass digest check always runs, and at least kMinWindows
  // windows, so window_scaled_cpu_ms_p90 has enough samples.
  constexpr size_t kMinWindows = 100;
  double peak_rss_mb = 0.0;
  size_t window_count = 0;
  while (passes.size() < 2 || window_count < kMinWindows ||
         SecondsSince(t0) < seconds) {
    passes.push_back(RunPass(spec, seed, timed));
    if (!passes.back().error.empty()) {
      failures.push_back(passes.back().error);
      PrintResult(spec.name, seed, 0, "", failures, passes.size(), 1, {});
      return 1;
    }
    // The first pass's peak: later passes reuse its freed memory, and only
    // allocator fragmentation would grow the peak further. The probe's own
    // memory is not the system's.
    if (passes.size() == 1) {
      peak_rss_mb = PeakRssMb() - static_cast<double>(probe.resident_bytes()) /
                                      (1024.0 * 1024.0);
    }
    window_count += passes.back().window_cpu_ms.size();
  }
  std::vector<double> setup_s;
  for (const PassResult& p : passes) {
    setup_s.push_back(p.setup_s);
  }
  // More set-ups alone, so the set-up median has at least 11 samples: a
  // set-up is short, so one slow moment of a shared host moves few of them.
  while (setup_s.size() < 11) {
    PassOptions setup_only;
    setup_only.timed_windows = false;
    setup_s.push_back(RunPass(spec, seed, setup_only).setup_s);
  }

  std::vector<const PassResult*> checked;
  for (const PassResult& p : passes) {
    checked.push_back(&p);
  }
  // The determinism contract: the executor width does not change what the
  // fleet observes. Sharded workloads rerun once at another width.
  PassResult other_width;
  if (spec.zones > 1) {
    PassOptions width;
    width.threads = spec.threads == 1 ? 2 : 1;
    other_width = RunPass(spec, seed, width);
    if (!other_width.error.empty()) {
      failures.push_back(other_width.error);
    } else {
      checked.push_back(&other_width);
    }
  }
  CheckPasses(checked, &failures);

  // Each pass's window CPU times, scaled to the reference host speed by
  // the median probe run of that pass (see probe.h and WorkloadSpec).
  std::vector<std::vector<double>> scaled(passes.size());
  std::vector<double> cpu_ns_per_delivery;
  std::vector<double> wall_ns_per_delivery;
  std::vector<double> steal_share;
  std::vector<double> probe_scale;
  std::vector<double> windows;
  uint64_t operations = 0;
  for (size_t i = 0; i < passes.size(); ++i) {
    const PassResult& p = passes[i];
    const double scale =
        1.0 / (1.0 - spec.probe_share +
               spec.probe_share * Median(p.probe_ns) / probe.reference_ns());
    for (double ms : p.window_cpu_ms) {
      scaled[i].push_back(ms * scale);
    }
    windows.insert(windows.end(), scaled[i].begin(), scaled[i].end());
    cpu_ns_per_delivery.push_back(p.cpu_ns_per_delivery());
    wall_ns_per_delivery.push_back(p.ns_per_delivery());
    steal_share.push_back(p.steal_ns / p.timed_ns);
    probe_scale.push_back(scale);
    operations += p.operations;
  }
  // Every pass simulates the same windows, so the typical pass is the sum,
  // over window positions, of each position's median scaled time across
  // passes: a burst of contention on the shared host then moves only the
  // windows it hit, not a whole pass.
  double typical_pass_ms = 0.0;
  for (size_t w = 0; w < scaled.front().size(); ++w) {
    std::vector<double> at_w;
    for (const std::vector<double>& pass : scaled) {
      at_w.push_back(pass[w]);
    }
    typical_pass_ms += Median(at_w);
  }
  const double typical_ns_per_delivery =
      typical_pass_ms * 1e6 /
      static_cast<double>(passes.front().delta.deliveries);
  std::printf(
      "%s seed=%llu passes=%zu windows=%zu deliveries/pass=%llu "
      "sim_per_pass_ms=%.1f miss_ratio=%.6f sync_max_skew_ms=%.3f "
      "sync_min_corr=%.4f digest=%s elapsed_s=%.1f\n",
      spec.name.c_str(), static_cast<unsigned long long>(seed), passes.size(),
      windows.size(),
      static_cast<unsigned long long>(passes.front().delta.deliveries),
      static_cast<double>(spec.end()) / 1e6, MissRatio(passes.front().delta),
      passes.front().observation.max_skew_s * 1e3,
      passes.front().observation.min_correlation,
      DigestHex(passes.front().observation.digest).c_str(), SecondsSince(t0));
  // Unscaled times are informational: on a shared host wall time moves
  // with the hypervisor's steal (printed as vCPU-seconds stolen per wall
  // second), and CPU time with the neighbours' use of the cores and memory.
  std::printf("wall_ns_per_delivery=%.0f cpu_ns_per_delivery=%.0f "
              "steal_vcpus=%.2f probe_scale=%.3f\n",
              Median(wall_ns_per_delivery), Median(cpu_ns_per_delivery),
              Median(steal_share), Median(probe_scale));
  std::printf("cpu_ns_per_delivery by pass:");
  for (double v : cpu_ns_per_delivery) {
    std::printf(" %.0f", v);
  }
  std::printf("\nprobe_scale by pass:");
  for (double v : probe_scale) {
    std::printf(" %.3f", v);
  }
  std::printf("\n");
  const std::vector<Metric> metrics = {
      {"scaled_cpu_ns_per_delivery", typical_ns_per_delivery, "ns"},
      {"window_scaled_cpu_ms_p50", Quantile(windows, 0.5), "ms"},
      {"window_scaled_cpu_ms_p90", Quantile(windows, 0.9), "ms"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      // miss_ratio is exactly 0 on loss-free workloads, and the benchmark
      // reports no metric that can read 0; its complement carries the same
      // information.
      {"played_ratio", 1.0 - MissRatio(passes.front().delta), "ratio"},
  };
  PrintResult(spec.name, seed, 0, DigestHex(passes.front().observation.digest),
              failures, operations, 0, metrics);
  return failures.empty() ? 0 : 1;
}

// ------------------------------------------------------- traced run --

int RunTraced(const WorkloadSpec& spec, uint64_t seed, double seconds,
              const std::string& trace_out) {
  PrintHost();
  std::vector<std::string> failures;
  SpanLog spans;

  // Each round runs an untraced pass between a traced pass and, on a
  // workload with observability planes, a pass with them off. The outer
  // two swap places every round, so host drift cancels from both
  // differences taken against the untraced pass (the tracing overhead and
  // obs.planes_ms). Allocation, copy and set-up counts come from the first
  // untraced pass; epoch stats and spans from the traced ones.
  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;
  std::vector<PassResult> planes_off;
  PassOptions traced_options;
  traced_options.spans = &spans;
  traced_options.epoch_hook = true;
  PassOptions planes_off_options;
  planes_off_options.with_planes = false;
  const auto t0 = Clock::now();
  while (traced.empty() || SecondsSince(t0) < seconds) {
    auto run_traced = [&] {
      traced.push_back(RunPass(spec, seed, traced_options));
    };
    auto run_planes_off = [&] {
      if (spec.planes) {
        planes_off.push_back(RunPass(spec, seed, planes_off_options));
      }
    };
    const bool swap = traced.size() % 2 == 1;
    swap ? run_planes_off() : run_traced();
    untraced.push_back(RunPass(spec, seed, PassOptions{}));
    swap ? run_traced() : run_planes_off();
    std::vector<const PassResult*> round = {&untraced.back(), &traced.back()};
    if (spec.planes) {
      round.push_back(&planes_off.back());
    }
    for (const PassResult* p : round) {
      if (!p->error.empty()) {
        failures.push_back(p->error);
        PrintResult(spec.name, seed, 1, "", failures, 1, 1, {});
        return 1;
      }
    }
  }
  const PassResult& base = untraced.front();
  std::vector<const PassResult*> checked;
  for (const PassResult& p : untraced) {
    checked.push_back(&p);
  }
  for (const PassResult& p : traced) {
    checked.push_back(&p);
  }
  // Payload copies are counted per thread (buffer_counters() is
  // thread-local), so they come from a pass at executor width 1.
  PassResult width_one;
  const PassResult* copies_from = &base;
  if (spec.zones > 1 && spec.threads > 1) {
    PassOptions one;
    one.threads = 1;
    width_one = RunPass(spec, seed, one);
    checked.push_back(&width_one);
    copies_from = &width_one;
  }
  CheckPasses(checked, &failures);

  // Producers alone: the same channels and players with no speakers.
  double producer_ns_per_packet = 0.0;
  {
    ScopedSpan span(&spans, "producer");
    FleetOptions options;
    options.with_speakers = false;
    options.with_planes = false;
    Fleet producers(spec, seed, options);
    EthernetSpeakerSystem* system = producers.system();
    system->RunUntil(spec.warmup);
    const uint64_t sent0 = system->lan()->stats().packets_sent;
    const double cpu0 = ProcessCpuNs();
    system->RunUntil(spec.end());
    const double ns = ProcessCpuNs() - cpu0;
    const uint64_t sent = system->lan()->stats().packets_sent - sent0;
    producer_ns_per_packet = sent == 0 ? 0.0 : ns / static_cast<double>(sent);
  }

  // Observability planes: each round's untraced pass (planes on) minus its
  // planes-off pass; the median difference, sign kept, so a negative value
  // shows that noise exceeded the planes' cost.
  std::vector<double> planes_diff_ms;
  for (size_t i = 0; i < planes_off.size(); ++i) {
    planes_diff_ms.push_back(
        (untraced[i].timed_cpu_ns - planes_off[i].timed_cpu_ns) / 1e6);
  }
  const double planes_ms = Median(planes_diff_ms);

  const Capture capture = CaptureWorkload(spec, seed);
  if (capture.data_packets == 0) {
    failures.push_back("tap captured no data packets");
  }
  const LayerCosts costs =
      ReplayLayers(spec, seed, capture, /*min_ns=*/200'000'000, &spans);

  // Medians over traced passes for host times; counts are deterministic.
  const Snapshot& d = base.delta;
  const auto deliveries = static_cast<double>(d.deliveries);
  auto per_delivery = [&](double v) {
    return deliveries > 0 ? v / deliveries : 0.0;
  };
  std::vector<double> epoch_run_ms;
  std::vector<double> barrier_wait_ms;
  std::vector<double> traced_ns;
  double root_ms = 0.0;
  for (const PassResult& p : traced) {
    epoch_run_ms.push_back(static_cast<double>(p.epoch_run_ns) / 1e6);
    barrier_wait_ms.push_back(static_cast<double>(p.epoch_wait_ns) / 1e6);
    traced_ns.push_back(p.cpu_ns_per_delivery());
    root_ms += p.timed_cpu_ns / 1e6 / static_cast<double>(traced.size());
  }
  std::vector<double> subscribe_us;
  for (const PassResult& p : untraced) {
    for (double ns : p.churn_call_ns) {
      subscribe_us.push_back(ns / 1e3);
    }
  }
  std::vector<double> add_speaker_us;
  for (double ns : base.add_speaker_ns) {
    add_speaker_us.push_back(ns / 1e3);
  }
  const double timed_sim_s =
      static_cast<double>(spec.window * spec.windows) / 1e9;

  const std::vector<Metric> metrics = {
      {"sim.events_per_delivery", per_delivery(static_cast<double>(d.events)),
       "1/delivery"},
      {"sim.msgs_per_delivery", per_delivery(static_cast<double>(d.messages)),
       "1/delivery"},
      {"sim.epochs", static_cast<double>(d.epochs), "count"},
      {"sim.ring_spills", static_cast<double>(d.ring_spills), "count"},
      {"sim.epoch_run_ms", Median(epoch_run_ms), "ms"},
      {"sim.barrier_wait_ms", Median(barrier_wait_ms), "ms"},
      {"sim.engine_ns_per_event", costs.engine_ns, "ns"},
      {"lan.transmit_ns_per_packet", costs.transmit_ns, "ns"},
      {"lan.deliveries", static_cast<double>(d.deliveries), "count"},
      {"lan.deliveries_lost", static_cast<double>(d.deliveries_lost),
       "count"},
      {"lan.queue_drops", static_cast<double>(d.queue_drops), "count"},
      {"proto.parse_ns_per_packet", costs.parse_ns, "ns"},
      {"proto.serialize_ns_per_packet", costs.serialize_ns, "ns"},
      {"codec.decode_ns_per_packet", costs.decode_ns, "ns"},
      {"codec.encode_ns_per_packet", costs.encode_ns, "ns"},
      {"speaker.ingest_ns", costs.ingest_ns, "ns"},
      {"speaker.decode_ns", costs.speaker_decode_ns, "ns"},
      {"speaker.play_ns", costs.play_ns, "ns"},
      {"speaker.retained_pcm_mb", base.retained_pcm_mb, "MB"},
      {"speaker.chunks_played", static_cast<double>(d.chunks_played),
       "count"},
      {"speaker.late_drops", static_cast<double>(d.late_drops), "count"},
      {"speaker.overflow_drops", static_cast<double>(d.overflow_drops),
       "count"},
      {"rebroadcast.producer_ns_per_packet", producer_ns_per_packet, "ns"},
      {"kernel.context_switches_per_sim_s",
       static_cast<double>(d.context_switches) / timed_sim_s, "1/sim_s"},
      {"obs.planes_ms", planes_ms, "ms"},
      {"obs.trace_events", static_cast<double>(d.trace_recorded), "count"},
      {"obs.trace_dropped", static_cast<double>(d.trace_dropped), "count"},
      {"mgmt.subscribe_us_p50", Quantile(subscribe_us, 0.5), "us"},
      {"mgmt.subscribe_us_p90", Quantile(subscribe_us, 0.9), "us"},
      {"base.allocs_per_delivery", per_delivery(static_cast<double>(d.allocs)),
       "1/delivery"},
      {"base.payload_copies_per_delivery",
       copies_from->delta.deliveries == 0
           ? 0.0
           : static_cast<double>(copies_from->delta.payload_copies) /
                 static_cast<double>(copies_from->delta.deliveries),
       "1/delivery"},
      {"core.add_speaker_us", Median(add_speaker_us), "us"},
  };

  // Trace report: each layer's replay cost scaled by how often the timed
  // windows exercise it, against the root (the timed RunUntil windows, in
  // host CPU time of all threads; the replays are timed in wall time on
  // one thread).
  // The replays run each layer in isolation, so the estimates can overlap
  // (the LAN replay dispatches its own delivery events, for one); the
  // residual is printed as measured, sign included.
  const Snapshot& td = traced.front().delta;
  const auto packets = static_cast<double>(td.packets_sent);
  const auto data_packets = static_cast<double>(td.data_packets_sent);
  const auto received = static_cast<double>(td.speaker_deliveries);
  const double decodes = received * costs.decodes_per_delivery;
  // The zone path parses once per zone and packet; the classic path once
  // per speaker and datagram.
  const double parses = spec.zones > 1 ? packets * spec.zones : received;
  const double encode_ms = costs.encode_ns * data_packets / 1e6;
  const double serialize_ms = costs.serialize_ns * packets / 1e6;
  const double decode_ms = costs.decode_ns * decodes / 1e6;
  const std::map<std::string, double> estimate_ms = {
      {"sim", costs.engine_ns * static_cast<double>(td.events) / 1e6},
      {"lan", costs.transmit_ns * packets / 1e6},
      {"proto", costs.parse_ns * parses / 1e6 + serialize_ms},
      {"codec", decode_ms + encode_ms},
      {"speaker", (costs.ingest_ns + costs.speaker_decode_ns +
                   costs.play_ns) * received / 1e6 - decode_ms},
      {"rebroadcast",
       producer_ns_per_packet * packets / 1e6 - encode_ms - serialize_ms},
      {"obs", planes_ms},
  };
  double summed = 0.0;
  std::printf("trace report (%s, seed %llu): root = timed RunUntil windows, "
              "%.1f ms host CPU per pass, all threads at executor width %d; "
              "layer estimates are single-thread replays\n",
              spec.name.c_str(), static_cast<unsigned long long>(seed),
              root_ms, spec.threads);
  std::printf("  %-12s %14s %14s\n", "layer", "estimate_ms", "share");
  for (const auto& [layer, ms] : estimate_ms) {
    summed += ms;
    std::printf("  %-12s %14.2f %13.1f%%\n", layer.c_str(), ms,
                100.0 * ms / root_ms);
  }
  std::printf("  %-12s %14.2f %13.1f%%\n", "unattributed", root_ms - summed,
              100.0 * (root_ms - summed) / root_ms);
  std::vector<double> untraced_per_delivery;
  for (const PassResult& p : untraced) {
    untraced_per_delivery.push_back(p.cpu_ns_per_delivery());
  }
  const double untraced_ns = Median(untraced_per_delivery);
  std::printf("  tracing overhead: %.2f%% (traced %.1f vs untraced %.1f "
              "CPU ns/delivery)\n",
              100.0 * (Median(traced_ns) - untraced_ns) / untraced_ns,
              Median(traced_ns), untraced_ns);
  std::printf("  span self time per layer (ms, traced passes + replays):");
  for (const auto& [layer, ns] : spans.LayerSelfTimes()) {
    std::printf(" %s=%.1f", layer.c_str(), static_cast<double>(ns) / 1e6);
  }
  std::printf("\n");
  if (!trace_out.empty()) {
    if (spans.WriteJson(trace_out)) {
      std::printf("  spans: %zu written to %s\n", spans.spans().size(),
                  trace_out.c_str());
    } else {
      failures.push_back("could not write " + trace_out);
    }
  }
  uint64_t operations = 0;
  for (const PassResult& p : traced) {
    operations += p.operations;
  }
  PrintResult(spec.name, seed, 1, DigestHex(base.observation.digest),
              failures, operations, 0, metrics);
  return failures.empty() ? 0 : 1;
}

int DigestOnly(const WorkloadSpec& spec, uint64_t seed) {
  const PassResult pass = RunPass(spec, seed, PassOptions{});
  if (!pass.error.empty()) {
    std::fprintf(stderr, "%s\n", pass.error.c_str());
    return 1;
  }
  std::printf("%s\n", DigestHex(pass.observation.digest).c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: espk_perfbench --workload <name> --seed <n> "
               "(--seconds <s> --trace <0|1> [--trace-out <path>] | "
               "--digest-only)\nworkloads:");
  for (const WorkloadSpec& spec : AllWorkloads()) {
    std::fprintf(stderr, " %s", spec.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  bool digest_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--digest-only") {
      digest_only = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else {
      return Usage();
    }
  }
  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  if (digest_only) {
    return DigestOnly(*spec, seed);
  }
  if (trace != ESPK_PERFBENCH_TRACED) {
    std::fprintf(stderr, "%s runs --trace %d only\n", argv[0],
                 ESPK_PERFBENCH_TRACED);
    return 2;
  }
  return trace == 1 ? RunTraced(*spec, seed, seconds, trace_out)
                    : RunEndToEnd(*spec, seed, seconds);
}

}  // namespace
}  // namespace espk::perfbench

int main(int argc, char** argv) { return espk::perfbench::Main(argc, argv); }
