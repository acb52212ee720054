#include "src/speaker/playback.h"

#include <algorithm>
#include <cmath>

namespace espk {

void OutputRecorder::Play(SimTime start, SharedPcm samples, float gain) {
  if (samples.empty()) {
    return;
  }
  segments_.push_back(Segment{start, std::move(samples), gain});
}

std::vector<float> OutputRecorder::Render(SimTime from,
                                          SimDuration duration) const {
  const int64_t frames = DurationToFrames(duration, sample_rate_);
  std::vector<float> out(static_cast<size_t>(frames * channels_), 0.0f);
  for (const Segment& seg : segments_) {
    int64_t seg_start_frame =
        DurationToFrames(seg.start - from, sample_rate_);
    const auto seg_frames =
        static_cast<int64_t>(seg.samples.size()) / channels_;
    const int64_t first = std::max<int64_t>(0, -seg_start_frame);
    const int64_t last = std::min(seg_frames, frames - seg_start_frame);
    if (first >= last) {
      continue;
    }
    const float* src = seg.samples.data() + first * channels_;
    float* dst = out.data() + (seg_start_frame + first) * channels_;
    const auto count = static_cast<size_t>((last - first) * channels_);
    if (seg.gain == 1.0f) {
      std::copy(src, src + count, dst);
    } else {
      for (size_t i = 0; i < count; ++i) {
        dst[i] = src[i] * seg.gain;
      }
    }
  }
  return out;
}

SimTime OutputRecorder::last_end() const {
  if (segments_.empty()) {
    return -1;
  }
  const Segment& last = segments_.back();
  return last.start + last.duration(sample_rate_, channels_);
}

int OutputRecorder::CountGaps(SimDuration threshold) const {
  int gaps = 0;
  for (size_t i = 1; i < segments_.size(); ++i) {
    SimTime prev_end = segments_[i - 1].start +
                       segments_[i - 1].duration(sample_rate_, channels_);
    if (segments_[i].start - prev_end > threshold) {
      ++gaps;
    }
  }
  return gaps;
}

SimDuration OutputRecorder::TotalGapTime() const {
  SimDuration total = 0;
  for (size_t i = 1; i < segments_.size(); ++i) {
    SimTime prev_end = segments_[i - 1].start +
                       segments_[i - 1].duration(sample_rate_, channels_);
    if (segments_[i].start > prev_end) {
      total += segments_[i].start - prev_end;
    }
  }
  return total;
}

double OutputRecorder::RecentRms(SimTime now, SimDuration window) const {
  SimTime from = now - window;
  double acc = 0.0;
  int64_t count = 0;
  for (auto it = segments_.rbegin(); it != segments_.rend(); ++it) {
    SimTime seg_end = it->start + it->duration(sample_rate_, channels_);
    if (seg_end <= from) {
      break;  // Segments are time-ordered; nothing older can overlap.
    }
    if (it->start >= now) {
      continue;
    }
    for (float s : it->samples) {
      if (it->gain != 1.0f) {
        s *= it->gain;
      }
      acc += static_cast<double>(s) * s;
      ++count;
    }
  }
  return count > 0 ? std::sqrt(acc / static_cast<double>(count)) : 0.0;
}

}  // namespace espk
