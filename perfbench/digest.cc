#include "perfbench/digest.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace espk::perfbench {

void Fnv64::Bytes(const void* data, size_t size) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    h_ = (h_ ^ p[i]) * 0x100000001b3ull;
  }
}

std::vector<size_t> SampledSpeakers(size_t speakers) {
  std::vector<size_t> picked;
  const size_t n = std::min<size_t>(8, speakers);
  for (size_t i = 0; i < n; ++i) {
    picked.push_back(i * speakers / n);
  }
  return picked;
}

Observation Observe(EthernetSpeakerSystem* system, SimTime end) {
  Observation obs;
  Fnv64 h;
  const auto& speakers = system->speakers();
  for (const auto& speaker : speakers) {
    const SpeakerStats& s = speaker->stats();
    // Field by field: the struct has padding bytes.
    for (uint64_t v :
         {s.packets_received, s.control_packets, s.data_packets,
          s.bad_packets, s.auth_rejected, s.waiting_drops, s.late_drops,
          s.overflow_drops, s.duplicate_drops, s.chunks_played,
          s.decode_errors}) {
      h.Value(v);
    }
    h.Value(s.total_lateness_ns);
    h.Value(s.silence_ns);
    obs.chunks_played += s.chunks_played;
    if (!speaker->subscriptions().empty() && s.chunks_played == 0) {
      ++obs.speakers_silent;
    }
  }
  const SegmentStats& lan = system->lan()->stats();
  for (uint64_t v : {lan.packets_offered, lan.packets_sent,
                     lan.packets_dropped_queue, lan.deliveries,
                     lan.deliveries_lost, lan.bytes_on_wire}) {
    h.Value(v);
  }

  const SimTime from = std::max<SimTime>(0, end - Seconds(1));
  for (size_t i : SampledSpeakers(speakers.size())) {
    const std::vector<float> pcm = speakers[i]->RenderMix(from, end - from);
    h.Value(pcm.size());
    h.Bytes(pcm.data(), pcm.size() * sizeof(float));
  }

  // A short window and search keep the sync scan cheap (it costs
  // pairs x window x lags); small fleets compare every pair.
  const SimDuration sync_window = Milliseconds(20);
  const auto sync = system->MeasureSync(end - sync_window, sync_window,
                                        Milliseconds(1),
                                        /*all_pairs=*/speakers.size() <= 64);
  obs.max_skew_s = sync.max_skew_seconds;
  obs.min_correlation = sync.min_correlation;
  obs.sync_pairs = sync.speaker_pairs;
  h.Value(sync.max_skew_seconds);
  h.Value(sync.min_correlation);
  h.Value(sync.speaker_pairs);
  obs.digest = h.value();
  return obs;
}

std::string DigestHex(uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, digest);
  return buf;
}

}  // namespace espk::perfbench
