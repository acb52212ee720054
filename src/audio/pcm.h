// Operations on interleaved float PCM: gain, mixing, channel remapping, and
// a linear resampler. These back the speaker's volume control (§5.2) and the
// format conversions the rebroadcaster may need between a VAD stream and a
// channel's configured wire format.
#ifndef SRC_AUDIO_PCM_H_
#define SRC_AUDIO_PCM_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/audio/format.h"
#include "src/base/local_ref.h"
#include "src/base/status.h"

namespace espk {

// Interleaved float samples plus layout. frames() * channels == data.size().
struct PcmBuffer {
  std::vector<float> samples;
  int channels = 1;
  int sample_rate = 8000;

  int64_t frames() const {
    return channels > 0
               ? static_cast<int64_t>(samples.size()) / channels
               : 0;
  }
};

// Immutable interleaved float PCM under single-shard shared ownership
// (src/base/local_ref.h): one decoded chunk that every speaker of a zone
// plays, and each speaker's output recorder retains, without a copy.
class SharedPcm {
 public:
  SharedPcm() = default;  // Empty: size() == 0, data() == nullptr.
  explicit SharedPcm(std::vector<float> samples)
      : rep_(LocalRef<const std::vector<float>>::Make(std::move(samples))) {}

  size_t size() const { return rep_ ? rep_->size() : 0; }
  bool empty() const { return size() == 0; }
  // Identifies the storage: equal for every handle to one decode.
  const float* data() const { return rep_ ? rep_->data() : nullptr; }
  const float* begin() const { return data(); }
  const float* end() const { return data() + size(); }
  int use_count() const { return rep_.use_count(); }

 private:
  LocalRef<const std::vector<float>> rep_;
};

// Multiplies every sample by `gain` (no clipping; callers clamp on encode).
void ApplyGain(PcmBuffer* buf, float gain);

// Converts a decibel volume setting to linear gain (0 dB -> 1.0).
float DbToGain(float db);
float GainToDb(float gain);

// Mixes `b` into `a` sample-by-sample (same layout required); `a` grows if
// `b` is longer.
Status MixInto(PcmBuffer* a, const PcmBuffer& b);

// Channel conversion: mono->N duplicates, N->mono averages, otherwise
// truncates/zero-fills channels.
PcmBuffer ConvertChannels(const PcmBuffer& in, int out_channels);

// Linear-interpolation resampler. Adequate for voice/announcement paths;
// the lossy codec path never resamples.
PcmBuffer Resample(const PcmBuffer& in, int out_rate);

// Full conversion pipeline between wire configs: decode is done by the
// caller (sample_convert); this adjusts channels then rate.
PcmBuffer ConvertFormat(const PcmBuffer& in, int out_channels, int out_rate);

}  // namespace espk

#endif  // SRC_AUDIO_PCM_H_
