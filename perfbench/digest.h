// What users of the simulated fleet observe, reduced to one 64-bit digest:
// every speaker's SpeakerStats, the segment's SegmentStats, the rendered
// PCM of sampled speakers over the last simulated second, and the
// MeasureSync skew. The simulation is deterministic, so a seed fixes the
// digest — across runs, passes and executor widths.
#ifndef PERFBENCH_DIGEST_H_
#define PERFBENCH_DIGEST_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/system.h"

namespace espk::perfbench {

// FNV-1a, 64-bit.
class Fnv64 {
 public:
  void Bytes(const void* data, size_t size);
  template <typename T>
  void Value(const T& v) {
    Bytes(&v, sizeof(v));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

struct Observation {
  uint64_t digest = 0;
  int speakers_silent = 0;    // Subscribed speakers that played nothing.
  uint64_t chunks_played = 0;
  double max_skew_s = 0.0;
  double min_correlation = 1.0;
  int sync_pairs = 0;
};

// Observes `system` at simulated time `end` (the end of the pass).
Observation Observe(EthernetSpeakerSystem* system, SimTime end);

// The speakers whose PCM the digest covers: eight spread evenly.
std::vector<size_t> SampledSpeakers(size_t speakers);

std::string DigestHex(uint64_t digest);

}  // namespace espk::perfbench

#endif  // PERFBENCH_DIGEST_H_
