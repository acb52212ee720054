#include "perfbench/layers.h"

#include <chrono>
#include <memory>
#include <utility>

#include "src/codec/codec.h"
#include "src/lan/segment.h"
#include "src/proto/wire.h"
#include "src/sim/shard.h"
#include "src/speaker/speaker.h"

namespace espk::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

int64_t ElapsedNs(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

// Runs `rep` (which returns the operations it performed) until `min_ns`
// of host time has passed, inside one span per repetition; returns host
// ns per operation.
template <typename Rep>
double Repeat(SpanLog* spans, const char* name, int64_t min_ns, Rep rep) {
  int64_t total_ns = 0;
  uint64_t ops = 0;
  while (total_ns < min_ns) {
    ScopedSpan span(spans, name);
    const auto t0 = Clock::now();
    const uint64_t n = rep();
    total_ns += ElapsedNs(t0);
    ops += n;
    if (n == 0) {
      break;  // Nothing to replay on this workload.
    }
  }
  return ops == 0 ? 0.0
                  : static_cast<double>(total_ns) / static_cast<double>(ops);
}

// Receives zone batches on the replay segment and drops them: the replay
// times the segment, not the zones.
class DiscardSink : public ZoneSink {
 public:
  void DeliverBatch(const Datagram&, std::vector<ZoneDeliveryEntry>) override {}
};

// The workload's membership on a bench-owned segment: a sharded segment
// with discarding zone sinks when the workload is sharded, else the classic
// per-NIC path (NICs without a receive handler). Each call to Replay()
// sends every captured datagram once.
class LanReplay {
 public:
  LanReplay(const WorkloadSpec& spec, const Capture& capture)
      : capture_(capture), span_(spec.end() + Seconds(1)) {
    SegmentConfig config;
    config.loss_probability = spec.loss_probability;
    config.jitter = spec.jitter;
    if (spec.zones > 1) {
      ShardGroup::Options options;
      options.shards = spec.zones;
      options.lookahead = config.base_delay;
      shards_ = std::make_unique<ShardGroup>(options);
      sim_ = shards_->sim(0);
    } else {
      classic_sim_ = std::make_unique<Simulation>();
      sim_ = classic_sim_.get();
    }
    segment_ = std::make_unique<EthernetSegment>(sim_, config);
    if (shards_ != nullptr) {
      segment_->EnableSharding(shards_.get(), 0);
      for (int z = 0; z < spec.zones; ++z) {
        sinks_.push_back(std::make_unique<DiscardSink>());
        segment_->RegisterZoneSink(z, sinks_.back().get());
      }
    }
    sender_ = segment_->CreateNic();
    std::vector<int> zone_members(static_cast<size_t>(spec.zones), 0);
    for (int i = 0; i < spec.speakers; ++i) {
      auto nic = segment_->CreateNic();
      if (shards_ != nullptr) {
        const int z = i % spec.zones;
        segment_->AssignZone(nic.get(), z,
                             zone_members[static_cast<size_t>(z)]++);
      }
      (void)nic->JoinGroup(
          capture.groups[static_cast<size_t>(i % spec.channels)]);
      nics_.push_back(std::move(nic));
    }
  }

  uint64_t Replay() {
    const SimTime base = static_cast<SimTime>(reps_++) * span_;
    for (const CapturedDatagram& c : capture_.datagrams) {
      sim_->ScheduleAt(base + c.arrival, [this, &c] {
        (void)sender_->SendMulticast(c.datagram.group, c.datagram.payload,
                                     c.datagram.trace);
      });
    }
    if (shards_ != nullptr) {
      shards_->RunUntil(base + span_);
    } else {
      sim_->RunUntil(base + span_);
    }
    return capture_.datagrams.size();
  }

 private:
  const Capture& capture_;
  SimDuration span_;
  uint64_t reps_ = 0;
  // Members unwind bottom-up: the NICs detach from the segment before it
  // goes, and the segment goes before the shard group it posts to.
  std::unique_ptr<ShardGroup> shards_;
  std::unique_ptr<Simulation> classic_sim_;
  Simulation* sim_ = nullptr;
  std::unique_ptr<EthernetSegment> segment_;
  std::vector<std::unique_ptr<DiscardSink>> sinks_;
  std::unique_ptr<SimNic> sender_;
  std::vector<std::unique_ptr<SimNic>> nics_;
};

struct SpeakerStageNs {
  int64_t ingest = 0;
  int64_t decode = 0;
  int64_t play = 0;
  uint64_t deliveries = 0;
  uint64_t decodes = 0;
};

// Bench-owned speakers, as many as the workload puts on channel 0, receive
// every captured datagram of that group at its captured arrival time. Each
// datagram is parsed once and fed to every speaker (as a zone does), then
// each speaker's decode and play run at their own simulated times.
void ReplaySpeakers(const WorkloadSpec& spec, const Capture& capture,
                    SpeakerStageNs* acc) {
  Simulation sim;
  EthernetSegment segment(&sim, SegmentConfig{});
  SpeakerOptions options;
  options.decode_speed_factor = spec.decode_speed_factor;
  const GroupId group = capture.groups[0];
  const int count = (spec.speakers + spec.channels - 1) / spec.channels;
  std::vector<std::unique_ptr<SimNic>> nics;
  std::vector<std::unique_ptr<EthernetSpeaker>> speakers;
  for (int i = 0; i < count; ++i) {
    nics.push_back(segment.CreateNic());
    speakers.push_back(
        std::make_unique<EthernetSpeaker>(&sim, nics.back().get(), options));
    (void)speakers.back()->Subscribe(group);
  }
  auto decode = [&sim, acc](EthernetSpeaker* spk, const PendingDecode& pending) {
    PendingPlay play;
    const auto t0 = Clock::now();
    spk->RunDecode(pending, &play);
    acc->decode += ElapsedNs(t0);
    ++acc->decodes;
    if (!play.valid) {
      return;
    }
    const SimTime at = play.at;
    sim.ScheduleAt(at, [spk, acc, p = std::move(play)]() mutable {
      const auto t1 = Clock::now();
      spk->RunPlay(std::move(p));
      acc->play += ElapsedNs(t1);
    });
  };
  for (const CapturedDatagram& c : capture.datagrams) {
    if (c.datagram.group != group) {
      continue;
    }
    sim.ScheduleAt(c.arrival, [&, group] {
      const Result<ParsedPacket> parsed = ParsePacket(c.datagram.payload);
      // One clock pair around the whole fan-out keeps timer overhead out
      // of the (short) per-speaker ingest.
      std::vector<PendingDecode> pending(speakers.size());
      const auto t0 = Clock::now();
      for (size_t i = 0; i < speakers.size(); ++i) {
        speakers[i]->IngestParsed(parsed, group, &pending[i]);
      }
      acc->ingest += ElapsedNs(t0);
      acc->deliveries += speakers.size();
      for (size_t i = 0; i < speakers.size(); ++i) {
        if (pending[i].valid) {
          EthernetSpeaker* spk = speakers[i].get();
          sim.ScheduleAt(pending[i].decode_done,
                         [&decode, spk, p = std::move(pending[i])] {
                           decode(spk, p);
                         });
        }
      }
    });
  }
  sim.Run();
  speakers.clear();
}

}  // namespace

Capture CaptureWorkload(const WorkloadSpec& spec, uint64_t seed) {
  Capture capture;
  FleetOptions options;
  options.with_speakers = false;
  options.with_planes = false;
  Fleet fleet(spec, seed, options);
  if (!fleet.ok()) {
    return capture;
  }
  EthernetSpeakerSystem* system = fleet.system();
  std::unique_ptr<SimNic> tap = system->lan()->CreateNic();
  for (const auto& channel : system->channels()) {
    capture.groups.push_back(channel->group);
    (void)tap->JoinGroup(channel->group);
  }
  tap->SetReceiveHandler([&capture, system](const Datagram& d) {
    capture.datagrams.push_back(CapturedDatagram{d, system->sim()->now()});
  });
  system->RunUntil(spec.end());
  tap.reset();
  for (const CapturedDatagram& c : capture.datagrams) {
    const Result<ParsedPacket> parsed = ParsePacket(c.datagram.payload);
    if (parsed.ok() && TypeOf(parsed->packet) == PacketType::kData) {
      ++capture.data_packets;
    }
  }
  return capture;
}

LayerCosts ReplayLayers(const WorkloadSpec& spec, uint64_t seed,
                        const Capture& capture, int64_t min_ns,
                        SpanLog* spans) {
  LayerCosts costs;
  ScopedSpan root(spans, "replay");

  std::vector<ParsedPacket> parsed;
  std::vector<std::pair<size_t, BufferSlice>> payloads;  // (channel, data)
  for (const CapturedDatagram& c : capture.datagrams) {
    Result<ParsedPacket> p = ParsePacket(c.datagram.payload);
    if (!p.ok()) {
      continue;
    }
    if (const auto* data = std::get_if<DataPacket>(&p->packet)) {
      for (size_t ch = 0; ch < capture.groups.size(); ++ch) {
        if (capture.groups[ch] == c.datagram.group) {
          payloads.emplace_back(ch, data->payload);
        }
      }
    }
    parsed.push_back(std::move(*p));
  }

  costs.parse_ns = Repeat(spans, "proto.parse", min_ns, [&] {
    uint64_t ok = 0;
    for (const CapturedDatagram& c : capture.datagrams) {
      ok += ParsePacket(c.datagram.payload).ok() ? 1 : 0;
    }
    return ok;
  });
  costs.serialize_ns = Repeat(spans, "proto.serialize", min_ns, [&] {
    uint64_t bytes = 0;
    for (const ParsedPacket& p : parsed) {
      bytes += SerializePacketSlice(p.packet).size();
    }
    return bytes > 0 ? static_cast<uint64_t>(parsed.size()) : 0;
  });

  costs.decode_ns = Repeat(spans, "codec.decode", min_ns, [&] {
    std::vector<std::unique_ptr<AudioDecoder>> decoders;
    for (size_t ch = 0; ch < capture.groups.size(); ++ch) {
      auto decoder = CreateDecoder(spec.codec, spec.config, spec.quality);
      if (!decoder.ok()) {
        return uint64_t{0};
      }
      decoders.push_back(std::move(*decoder));
    }
    uint64_t decoded = 0;
    for (const auto& [ch, payload] : payloads) {
      decoded += decoders[ch]->DecodePacket(payload).ok() ? 1 : 0;
    }
    return decoded;
  });

  // The players' PCM: each channel's generator, cut into packets.
  std::vector<std::vector<std::vector<float>>> pcm(capture.groups.size());
  std::vector<uint64_t> packets_per_channel(capture.groups.size(), 0);
  for (const auto& entry : payloads) {
    ++packets_per_channel[entry.first];
  }
  for (size_t ch = 0; ch < capture.groups.size(); ++ch) {
    MusicLikeGenerator generator(DeriveSeed(seed, 100 + ch));
    for (uint64_t i = 0; i < packets_per_channel[ch]; ++i) {
      std::vector<float> packet;
      generator.Generate(spec.packet_frames, spec.config.channels,
                         spec.config.sample_rate, &packet);
      pcm[ch].push_back(std::move(packet));
    }
  }
  costs.encode_ns = Repeat(spans, "codec.encode", min_ns, [&] {
    uint64_t encoded = 0;
    for (size_t ch = 0; ch < pcm.size(); ++ch) {
      auto encoder = CreateEncoder(spec.codec, spec.config, spec.quality);
      if (!encoder.ok()) {
        return uint64_t{0};
      }
      for (const auto& packet : pcm[ch]) {
        encoded += (*encoder)->EncodePacket(packet).ok() ? 1 : 0;
      }
    }
    return encoded;
  });

  SpeakerStageNs stages;
  (void)Repeat(spans, "speaker.pipeline", min_ns, [&] {
    const uint64_t before = stages.deliveries;
    ReplaySpeakers(spec, capture, &stages);
    return stages.deliveries - before;
  });
  if (stages.deliveries > 0) {
    const auto n = static_cast<double>(stages.deliveries);
    costs.ingest_ns = static_cast<double>(stages.ingest) / n;
    costs.speaker_decode_ns = static_cast<double>(stages.decode) / n;
    costs.play_ns = static_cast<double>(stages.play) / n;
    costs.decodes_per_delivery = static_cast<double>(stages.decodes) / n;
  }

  {
    LanReplay lan(spec, capture);
    costs.transmit_ns =
        Repeat(spans, "lan.transmit", min_ns, [&] { return lan.Replay(); });
  }

  constexpr uint64_t kEngineEvents = 200000;
  costs.engine_ns = Repeat(spans, "sim.engine", min_ns, [&] {
    Simulation sim;
    Prng prng(DeriveSeed(seed, 3));
    uint64_t fired = 0;
    for (uint64_t i = 0; i < kEngineEvents; ++i) {
      sim.ScheduleAt(static_cast<SimTime>(prng.NextBelow(
                         static_cast<uint64_t>(spec.end()))),
                     [&fired] { ++fired; });
    }
    sim.Run();
    return fired;
  });
  return costs;
}

}  // namespace espk::perfbench
