#include "perfbench/workloads.h"

#include <chrono>
#include <utility>

namespace espk::perfbench {
namespace {

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> all;

  // Fan-out, event engine and memory at fleet scale: the codec does almost
  // no work (raw 8 kHz mono, 4 ms packets, tiny decode factor), and it is
  // the one workload with executor width > 1.
  WorkloadSpec fleet;
  fleet.name = "fleet_raw_10k";
  fleet.channels = 1;
  fleet.speakers = 10000;
  fleet.zones = 4;
  fleet.threads = 2;
  fleet.config = AudioConfig::PhoneQuality();
  fleet.codec = CodecId::kRaw;
  fleet.packet_frames = 32;
  fleet.chunk_frames = 1600;
  fleet.decode_speed_factor = 0.02;
  // Three packet periods per window, so one window's host time is long
  // enough that short host interruptions do not decide its p90.
  fleet.window = Milliseconds(12);
  fleet.windows = 42;
  // Fanning each packet out to 10k speakers' state is bound by memory.
  fleet.probe = ProbeKind::kMemory;
  all.push_back(fleet);

  // The classic single loop with the producer side, lossy delivery,
  // membership churn and both observability planes all in play.
  WorkloadSpec studio;
  studio.name = "studio_churn";
  studio.channels = 8;
  studio.speakers = 32;
  studio.zones = 1;
  studio.threads = 1;
  studio.config = AudioConfig::CdQuality();
  studio.codec = CodecId::kVorbix;
  studio.quality = 5;
  studio.packet_frames = 1024;
  studio.loss_probability = 0.01;
  studio.jitter = Milliseconds(2);
  studio.join_latency = Milliseconds(1);
  studio.planes = true;
  studio.churn = true;
  studio.window = Milliseconds(100);  // The churn period.
  studio.windows = 100;
  // Vorbix encode and decode are bound by float throughput, for about half
  // of the workload's CPU time (NOTES.md, "Noise on a shared host").
  studio.probe = ProbeKind::kCompute;
  studio.probe_share = 0.5;
  all.push_back(studio);
  return all;
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> all = MakeWorkloads();
  return all;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + (stream + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Fleet::Fleet(const WorkloadSpec& spec, uint64_t seed,
             const FleetOptions& options)
    : spec_(spec), churn_prng_(DeriveSeed(seed, 2)) {
  SpanLog* spans = options.spans;
  SystemOptions system_options;
  system_options.lan.loss_probability = spec.loss_probability;
  system_options.lan.jitter = spec.jitter;
  system_options.lan.join_latency = spec.join_latency;
  system_options.lan.seed = DeriveSeed(seed, 1);
  system_options.sharded.zones = spec.zones;
  system_options.sharded.threads =
      options.threads > 0 ? options.threads : spec.threads;
  {
    ScopedSpan span(spans, "core.construct");
    system_ = std::make_unique<EthernetSpeakerSystem>(system_options);
  }

  std::vector<Channel*> channels;
  for (int c = 0; c < spec.channels; ++c) {
    RebroadcasterOptions rb;
    rb.codec_override = spec.codec;
    rb.quality = spec.quality;
    rb.packet_frames = spec.packet_frames;
    ScopedSpan span(spans, "core.create_channel");
    Result<Channel*> channel = system_->CreateChannel(ChannelName(c), rb);
    if (!channel.ok()) {
      error_ = "CreateChannel: " + channel.status().ToString();
      return;
    }
    channels.push_back(*channel);
  }

  if (options.with_speakers) {
    SpeakerOptions so;
    so.decode_speed_factor = spec.decode_speed_factor;
    add_speaker_ns_.reserve(static_cast<size_t>(spec.speakers));
    speaker_channel_.reserve(static_cast<size_t>(spec.speakers));
    ScopedSpan all_span(spans, "core.add_speakers");
    for (int i = 0; i < spec.speakers; ++i) {
      const int c = i % spec.channels;
      so.name = "es-" + std::to_string(i);
      ScopedSpan span(spans, "core.add_speaker");
      const auto t0 = std::chrono::steady_clock::now();
      Result<EthernetSpeaker*> speaker =
          system_->AddSpeaker(so, channels[static_cast<size_t>(c)]->group);
      const auto t1 = std::chrono::steady_clock::now();
      if (!speaker.ok()) {
        error_ = "AddSpeaker: " + speaker.status().ToString();
        return;
      }
      add_speaker_ns_.push_back(
          std::chrono::duration<double, std::nano>(t1 - t0).count());
      speaker_channel_.push_back(c);
    }
  }

  for (int c = 0; c < spec.channels; ++c) {
    PlayerAppOptions player;
    player.config = spec.config;
    player.chunk_frames = spec.chunk_frames;
    ScopedSpan span(spans, "core.start_player");
    Result<PlayerApp*> started = system_->StartPlayer(
        channels[static_cast<size_t>(c)],
        std::make_unique<MusicLikeGenerator>(
            DeriveSeed(seed, 100 + static_cast<uint64_t>(c))),
        player);
    if (!started.ok()) {
      error_ = "StartPlayer: " + started.status().ToString();
      return;
    }
  }

  if (spec.planes && options.with_planes) {
    ScopedSpan span(spans, "obs.enable_planes");
    system_->EnableSpanTracing();
    system_->EnableHealthMonitoring();
  }
}

bool Fleet::Churn(std::vector<double>* call_ns) {
  if (!spec_.churn || speaker_channel_.empty() || spec_.channels < 2) {
    return true;
  }
  // Speakers take turns in a seeded order, so every speaker moves about
  // equally often and no seed leaves one speaker's history untouched.
  if (churn_order_.empty()) {
    for (size_t i = 0; i < speaker_channel_.size(); ++i) {
      churn_order_.push_back(i);
    }
    for (size_t i = churn_order_.size() - 1; i > 0; --i) {
      std::swap(churn_order_[i], churn_order_[churn_prng_.NextBelow(i + 1)]);
    }
  }
  const size_t k = churn_order_[churn_steps_++ % churn_order_.size()];
  const int from = speaker_channel_[k];
  const int to = static_cast<int>(
      (static_cast<uint64_t>(from) + 1 +
       churn_prng_.NextBelow(static_cast<uint64_t>(spec_.channels - 1))) %
      static_cast<uint64_t>(spec_.channels));
  auto timed = [&](auto&& call) {
    const auto t0 = std::chrono::steady_clock::now();
    Status status = call();
    const auto t1 = std::chrono::steady_clock::now();
    call_ns->push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count());
    return status;
  };
  Status left = timed([&] {
    return system_->UnsubscribeSpeaker(k, ChannelName(from));
  });
  Status joined = left.ok() ? timed([&] {
    return system_->SubscribeSpeaker(k, ChannelName(to));
  })
                            : left;
  if (!joined.ok()) {
    error_ = "churn: " + joined.ToString();
    return false;
  }
  speaker_channel_[k] = to;
  return true;
}

}  // namespace espk::perfbench
