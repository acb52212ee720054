// Simulated speaker output stage: records exactly which samples left the
// speaker at which simulated instant. Experiments reconstruct each
// speaker's acoustic timeline from this and measure inter-speaker skew,
// gaps (underruns), and content fidelity — the things a listener standing
// between two Ethernet Speakers would hear (§3.2).
#ifndef SRC_SPEAKER_PLAYBACK_H_
#define SRC_SPEAKER_PLAYBACK_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/audio/format.h"
#include "src/audio/pcm.h"
#include "src/base/time_types.h"

namespace espk {

class OutputRecorder {
 public:
  OutputRecorder(int sample_rate, int channels)
      : sample_rate_(sample_rate), channels_(channels) {}

  // Plays `samples` (interleaved) starting at `start`, scaled by `gain`.
  // The recorder retains the shared chunk as is and applies `gain` when it
  // reads the samples back (Render, RecentRms), so a zone's speakers all
  // hold one copy of each decoded chunk whatever their volume. Segments are
  // expected in nondecreasing start order (chunks are played by deadline);
  // overlapping audio is overwritten by the newer segment at Render time.
  void Play(SimTime start, SharedPcm samples, float gain);
  // Adopts a private chunk (baseline player, tests).
  void Play(SimTime start, std::vector<float> samples, float gain) {
    Play(start, SharedPcm(std::move(samples)), gain);
  }

  // Renders the continuous waveform in [from, from+duration): silence where
  // nothing was playing.
  std::vector<float> Render(SimTime from, SimDuration duration) const;

  // One played chunk. `samples` is the decoded PCM exactly as the decoder
  // produced it, shared with every other speaker of the zone that decoded
  // the same packet; `gain` is this speaker's volume when the chunk played.
  // A sample leaves the speaker as `samples[i] * gain`: one float multiply,
  // skipped at gain 1, so the output is bit-identical to storing the
  // product, and a gain change (§5.2 auto-volume) reaches only the
  // segments played after it.
  struct Segment {
    SimTime start;
    SharedPcm samples;  // Interleaved, as decoded; size() counts floats.
    float gain = 1.0f;
    SimDuration duration(int sample_rate, int channels) const {
      return FramesToDuration(
          static_cast<int64_t>(samples.size()) / channels, sample_rate);
    }
  };
  const std::vector<Segment>& segments() const { return segments_; }

  int sample_rate() const { return sample_rate_; }
  int channels() const { return channels_; }

  SimTime first_start() const {
    return segments_.empty() ? -1 : segments_.front().start;
  }
  SimTime last_end() const;

  // Gaps between consecutive segments longer than `threshold` — audible
  // dropouts.
  int CountGaps(SimDuration threshold) const;
  SimDuration TotalGapTime() const;

  // Average absolute output level over the most recent `window` ending at
  // `now` (used by the §5.2 auto-volume loop's self-monitoring microphone).
  double RecentRms(SimTime now, SimDuration window) const;

 private:
  int sample_rate_;
  int channels_;
  std::vector<Segment> segments_;
};

}  // namespace espk

#endif  // SRC_SPEAKER_PLAYBACK_H_
