// Unit checks of the benchmark's own code: span self time, quantiles, the
// digest hash, seed derivation, speaker sampling and the host probes.
// perfbench/selftest.py builds and runs this binary before its end-to-end
// checks.
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/digest.h"
#include "perfbench/probe.h"
#include "perfbench/spans.h"
#include "perfbench/stats.h"
#include "perfbench/workloads.h"

namespace espk::perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

void TestSelfTimes() {
  // root [0,100] with children [10,30] and [20,50] overlapping (parallel
  // zones) and [60,70]; the first child has its own child [12,14].
  const std::vector<Span> spans = {
      {"window", 0, 100, -1},      {"sim.epoch_run", 10, 30, 0},
      {"sim.epoch_run", 20, 50, 0}, {"sim.epoch_run", 60, 70, 0},
      {"proto.parse", 12, 14, 1},
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  Expect(self[0] == 100 - 40 - 10, "root self time excludes child union");
  Expect(self[1] == 18, "child self time excludes grandchild");
  Expect(self[2] == 30 && self[3] == 10 && self[4] == 2, "leaf self times");

  // A child sticking out of its parent only covers the overlap.
  const std::vector<Span> clipped = {{"a", 0, 10, -1}, {"b.x", 5, 20, 0}};
  Expect(SelfTimes(clipped)[0] == 5, "child interval clipped to parent");

  Expect(LayerOf("proto.parse") == "proto", "layer is the name prefix");
  Expect(LayerOf("window") == "window", "a dotless name is its own layer");
}

void TestQuantiles() {
  Expect(Median({}) == 0.0, "median of nothing is 0");
  Expect(Median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  Expect(Median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median interpolates");
  std::vector<double> hundred;
  for (int i = 1; i <= 101; ++i) {
    hundred.push_back(i);
  }
  Expect(Quantile(hundred, 0.9) == 91.0, "p90 of 1..101");
}

void TestDigestParts() {
  Fnv64 empty;
  Expect(empty.value() == 0xcbf29ce484222325ull, "FNV-1a offset basis");
  Fnv64 a;
  a.Bytes("a", 1);
  Expect(a.value() == 0xaf63dc4c8601ec8cull, "FNV-1a of \"a\"");
  Expect(DigestHex(0xaf63dc4c8601ec8cull) == "af63dc4c8601ec8c",
         "digest hex is 16 lower-case digits");

  const std::vector<size_t> few = SampledSpeakers(3);
  Expect(few == std::vector<size_t>({0, 1, 2}), "small fleets sample all");
  const std::vector<size_t> many = SampledSpeakers(10000);
  bool increasing = many.size() == 8;
  for (size_t i = 1; i < many.size(); ++i) {
    increasing = increasing && many[i] > many[i - 1] && many[i] < 10000;
  }
  Expect(increasing, "eight distinct speakers sampled from a large fleet");

  Expect(DeriveSeed(1, 1) == DeriveSeed(1, 1), "seed derivation repeats");
  Expect(DeriveSeed(1, 1) != DeriveSeed(1, 2), "streams differ");
  Expect(DeriveSeed(1, 1) != DeriveSeed(2, 1), "seeds differ");
}

void TestWorkloads() {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    Expect(FindWorkload(spec.name) == &spec, "workload found by name");
    Expect(spec.windows >= 1 && spec.window > 0, "workload has windows");
    Expect(spec.speakers % spec.channels == 0 || spec.channels == 1,
           "speakers spread evenly over channels");
  }
  Expect(FindWorkload("no-such-workload") == nullptr, "unknown workload");
}

void TestProbes() {
  for (ProbeKind kind : {ProbeKind::kCompute, ProbeKind::kMemory}) {
    HostProbe probe(kind);
    Expect(probe.RunNs() > 0.0 && probe.RunNs() > 0.0, "probe runs take time");
    Expect(probe.reference_ns() > 0.0, "probe has a reference time");
  }
  Expect(HostProbe(ProbeKind::kMemory).resident_bytes() == (size_t{256} << 20),
         "memory probe keeps its 256 MiB table");
}

}  // namespace
}  // namespace espk::perfbench

int main() {
  espk::perfbench::TestSelfTimes();
  espk::perfbench::TestQuantiles();
  espk::perfbench::TestDigestParts();
  espk::perfbench::TestWorkloads();
  espk::perfbench::TestProbes();
  if (espk::perfbench::failures != 0) {
    std::printf("%d check(s) failed\n", espk::perfbench::failures);
    return 1;
  }
  std::printf("perfbench selftest OK\n");
  return 0;
}
