// Unit tests for the Ethernet Speaker internals: the output recorder, the
// speaker state machine driven by hand-crafted datagrams (no producer
// needed), decode sharing inside a speaker zone, and the §5.2 auto-volume
// controller.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/audio/analysis.h"
#include "src/audio/generator.h"
#include "src/audio/sample_convert.h"
#include "src/core/system.h"
#include "src/lan/segment.h"
#include "src/obs/trace.h"
#include "src/speaker/auto_volume.h"
#include "src/speaker/playback.h"
#include "src/speaker/speaker.h"
#include "src/speaker/speaker_zone.h"

namespace espk {
namespace {

// --------------------------------------------------------- OutputRecorder --

TEST(OutputRecorderTest, RenderPlacesSegmentsAtTheirTimes) {
  OutputRecorder rec(8000, 1);
  rec.Play(Milliseconds(100), {0.5f, 0.5f}, 1.0f);
  // Render 200 ms starting at t=0: samples land at frame 800.
  std::vector<float> out = rec.Render(0, Milliseconds(200));
  ASSERT_EQ(out.size(), 1600u);
  EXPECT_EQ(out[799], 0.0f);
  EXPECT_EQ(out[800], 0.5f);
  EXPECT_EQ(out[801], 0.5f);
  EXPECT_EQ(out[802], 0.0f);
}

TEST(OutputRecorderTest, GainAppliedAtPlayTime) {
  OutputRecorder rec(8000, 1);
  rec.Play(0, {1.0f}, 0.25f);
  std::vector<float> out = rec.Render(0, Milliseconds(1));
  EXPECT_FLOAT_EQ(out[0], 0.25f);
}

TEST(OutputRecorderTest, CountGapsFindsDropouts) {
  OutputRecorder rec(8000, 1);
  // 100 ms of audio, 50 ms gap, 100 ms of audio.
  std::vector<float> chunk(800, 0.1f);
  rec.Play(0, chunk, 1.0f);
  rec.Play(Milliseconds(150), chunk, 1.0f);
  rec.Play(Milliseconds(250), chunk, 1.0f);  // Back-to-back: no gap.
  EXPECT_EQ(rec.CountGaps(Milliseconds(5)), 1);
  EXPECT_EQ(rec.TotalGapTime(), Milliseconds(50));
}

TEST(OutputRecorderTest, RecentRmsSeesOnlyTheWindow) {
  OutputRecorder rec(8000, 1);
  rec.Play(0, std::vector<float>(800, 0.8f), 1.0f);                  // Loud.
  rec.Play(Milliseconds(500), std::vector<float>(800, 0.01f), 1.0f); // Quiet.
  double recent = rec.RecentRms(Milliseconds(650), Milliseconds(100));
  EXPECT_NEAR(recent, 0.01, 0.002);
}

TEST(OutputRecorderTest, BoundariesOfRenderWindow) {
  OutputRecorder rec(8000, 2);
  rec.Play(Milliseconds(10), {1.0f, -1.0f, 0.5f, -0.5f}, 1.0f);
  // Window entirely before the segment: silence.
  std::vector<float> before = rec.Render(0, Milliseconds(5));
  EXPECT_EQ(Peak(before), 0.0);
  // Window entirely after: silence.
  std::vector<float> after = rec.Render(Milliseconds(100), Milliseconds(5));
  EXPECT_EQ(Peak(after), 0.0);
}

TEST(OutputRecorderTest, EmptyStateAccessors) {
  OutputRecorder rec(44100, 2);
  EXPECT_EQ(rec.first_start(), -1);
  EXPECT_EQ(rec.last_end(), -1);
  EXPECT_EQ(rec.CountGaps(0), 0);
  EXPECT_EQ(rec.RecentRms(Seconds(1), Seconds(1)), 0.0);
}

bool BitIdentical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// The recorder keeps each chunk as decoded and applies the speaker's gain
// when reading it back. That must equal, to the bit, a recorder that
// stored `s * gain` in place (what it did before chunks were shared).
TEST(OutputRecorderTest, GainAtRenderMatchesPremultipliedSamples) {
  MusicLikeGenerator gen(5);
  std::vector<float> chunk;
  gen.Generate(800, 2, 8000, &chunk);
  for (float gain : {0.5f, 0.3f, 1.7f, 0.0f}) {
    OutputRecorder shared(8000, 2);
    OutputRecorder premultiplied(8000, 2);
    std::vector<float> scaled = chunk;
    for (float& s : scaled) {
      s *= gain;
    }
    for (SimTime start : {Milliseconds(0), Milliseconds(100),
                          Milliseconds(180)}) {  // The last one overlaps.
      shared.Play(start, chunk, gain);
      premultiplied.Play(start, scaled, 1.0f);
    }
    EXPECT_TRUE(BitIdentical(shared.Render(Milliseconds(-7), Milliseconds(400)),
                             premultiplied.Render(Milliseconds(-7),
                                                  Milliseconds(400))))
        << gain;
    EXPECT_EQ(shared.RecentRms(Milliseconds(250), Milliseconds(120)),
              premultiplied.RecentRms(Milliseconds(250), Milliseconds(120)))
        << gain;
  }
}

// §5.2 auto-volume changes the gain between chunks: the change reaches the
// chunks played after it, never one already played — even when both
// segments hold the very same shared chunk.
TEST(OutputRecorderTest, GainChangeAffectsOnlyLaterSegments) {
  OutputRecorder rec(8000, 1);
  const SharedPcm chunk(std::vector<float>(8, 0.8f));
  rec.Play(0, chunk, 1.0f);
  rec.Play(Microseconds(1000), chunk, 0.5f);
  ASSERT_EQ(rec.segments().size(), 2u);
  EXPECT_EQ(rec.segments()[0].samples.data(), rec.segments()[1].samples.data());
  std::vector<float> out = rec.Render(0, Milliseconds(2));
  ASSERT_EQ(out.size(), 16u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(out[i], 0.8f) << i;
    EXPECT_EQ(out[8 + i], 0.8f * 0.5f) << i;
  }
  EXPECT_EQ(rec.RecentRms(Milliseconds(2), Milliseconds(1)),
            static_cast<double>(0.8f * 0.5f));
}

// ------------------------------------------- Speaker fed crafted packets --

class SpeakerHarness {
 public:
  explicit SpeakerHarness(SpeakerOptions options = {})
      : segment_(&sim_, SegmentConfig{}),
        nic_(segment_.CreateNic()),
        speaker_(&sim_, nic_.get(), std::move(options)) {
    (void)speaker_.Tune(kFirstChannelGroup);
  }

  void Deliver(const Packet& packet, const Bytes& auth = {}) {
    DeliverTo(kFirstChannelGroup, packet, auth);
  }

  void DeliverTo(GroupId group, const Packet& packet, const Bytes& auth = {}) {
    Datagram d;
    d.group = group;
    d.payload = SerializePacket(packet, auth);
    speaker_.HandleDatagram(d);
  }

  ControlPacket MakeControl(SimTime producer_clock, uint32_t stream_id = 1) {
    ControlPacket control;
    control.stream_id = stream_id;
    control.control_seq = 1;
    control.producer_clock = producer_clock;
    control.config = config_;
    control.codec = CodecId::kRaw;
    return control;
  }

  DataPacket MakeData(uint32_t seq, SimTime deadline, int64_t frames,
                      uint32_t stream_id = 1) {
    DataPacket data;
    data.stream_id = stream_id;
    data.seq = seq;
    data.play_deadline = deadline;
    data.frame_count = static_cast<uint32_t>(frames);
    SineGenerator gen(440.0);
    data.payload = gen.GenerateBytes(frames, config_);
    return data;
  }

  Simulation sim_;
  EthernetSegment segment_;
  std::unique_ptr<SimNic> nic_;
  AudioConfig config_{8000, 1, AudioEncoding::kLinearS16};
  EthernetSpeaker speaker_;
};

TEST(SpeakerTest, DataBeforeControlIsDropped) {
  SpeakerHarness h;
  h.Deliver(h.MakeData(0, Milliseconds(100), 800));
  EXPECT_EQ(h.speaker_.stats().waiting_drops, 1u);
  EXPECT_FALSE(h.speaker_.ready());
}

TEST(SpeakerTest, ControlThenDataPlaysAtDeadline) {
  SpeakerHarness h;
  h.Deliver(h.MakeControl(/*producer_clock=*/0));
  ASSERT_TRUE(h.speaker_.ready());
  h.Deliver(h.MakeData(0, Milliseconds(100), 800));
  h.sim_.RunUntil(Milliseconds(99));
  EXPECT_EQ(h.speaker_.stats().chunks_played, 0u);  // Sleeping until time.
  h.sim_.RunUntil(Milliseconds(101));
  EXPECT_EQ(h.speaker_.stats().chunks_played, 1u);
  EXPECT_EQ(h.speaker_.output()->first_start(), Milliseconds(100));
}

TEST(SpeakerTest, ClockOffsetMapsProducerDeadlines) {
  // The speaker's clock reads 5 s when the producer's reads 0: the offset
  // is learned from the control packet and applied to every deadline.
  SpeakerHarness h;
  h.sim_.RunUntil(Seconds(5));
  h.Deliver(h.MakeControl(/*producer_clock=*/0));
  h.Deliver(h.MakeData(0, /*deadline=*/Milliseconds(100), 800));
  h.sim_.RunUntil(Seconds(5) + Milliseconds(150));
  EXPECT_EQ(h.speaker_.stats().chunks_played, 1u);
  EXPECT_EQ(h.speaker_.output()->first_start(),
            Seconds(5) + Milliseconds(100));
}

TEST(SpeakerTest, LateWithinEpsilonPlaysImmediately) {
  SpeakerOptions options;
  options.sync_epsilon = Milliseconds(20);
  options.decode_speed_factor = 0.0;
  SpeakerHarness h(options);
  h.Deliver(h.MakeControl(0));
  h.sim_.RunUntil(Milliseconds(110));  // 10 ms past the deadline.
  h.Deliver(h.MakeData(0, Milliseconds(100), 800));
  h.sim_.RunFor(Milliseconds(1));
  EXPECT_EQ(h.speaker_.stats().chunks_played, 1u);
  EXPECT_EQ(h.speaker_.stats().late_drops, 0u);
  EXPECT_GT(h.speaker_.stats().total_lateness_ns, 0);
}

TEST(SpeakerTest, LateBeyondEpsilonIsDiscarded) {
  SpeakerOptions options;
  options.sync_epsilon = Milliseconds(20);
  options.decode_speed_factor = 0.0;
  SpeakerHarness h(options);
  h.Deliver(h.MakeControl(0));
  h.sim_.RunUntil(Milliseconds(200));  // 100 ms past the deadline.
  h.Deliver(h.MakeData(0, Milliseconds(100), 800));
  h.sim_.RunFor(Milliseconds(1));
  EXPECT_EQ(h.speaker_.stats().chunks_played, 0u);
  EXPECT_EQ(h.speaker_.stats().late_drops, 1u);
}

TEST(SpeakerTest, DuplicateSequenceDropped) {
  SpeakerHarness h;
  h.Deliver(h.MakeControl(0));
  h.Deliver(h.MakeData(5, Milliseconds(100), 800));
  h.Deliver(h.MakeData(5, Milliseconds(100), 800));  // Replay.
  EXPECT_EQ(h.speaker_.stats().duplicate_drops, 1u);
}

TEST(SpeakerTest, CorruptDatagramCountedNotCrashed) {
  SpeakerHarness h;
  Datagram d;
  d.group = kFirstChannelGroup;
  d.payload = {1, 2, 3, 4, 5};
  h.speaker_.HandleDatagram(d);
  EXPECT_EQ(h.speaker_.stats().bad_packets, 1u);
}

TEST(SpeakerTest, JitterBufferOverflowDropsExcess) {
  SpeakerOptions options;
  options.jitter_buffer_bytes = 16000;  // ~4000 mono float samples.
  options.decode_speed_factor = 0.0;
  SpeakerHarness h(options);
  h.Deliver(h.MakeControl(0));
  // Flood with future-deadline chunks: 800 frames = 3200 bytes decoded.
  for (uint32_t i = 0; i < 20; ++i) {
    h.Deliver(h.MakeData(i, Seconds(10) + Milliseconds(100 * i), 800));
  }
  EXPECT_GT(h.speaker_.stats().overflow_drops, 0u);
  EXPECT_LE(h.speaker_.stats().data_packets -
                h.speaker_.stats().overflow_drops,
            5u + 1u);
}

TEST(SpeakerTest, DecodeErrorCounted) {
  SpeakerHarness h;
  h.Deliver(h.MakeControl(0));
  DataPacket bad = h.MakeData(0, Milliseconds(100), 800);
  // Truncate by one byte: no longer a whole frame count (raw codec).
  bad.payload = bad.payload.Subslice(0, bad.payload.size() - 1);
  h.Deliver(bad);
  // The payload rides the pipeline as a slice; the decode (and its failure)
  // happens when the serialized decode stage completes.
  h.sim_.Run();
  EXPECT_EQ(h.speaker_.stats().decode_errors, 1u);
}

TEST(SpeakerTest, RetuneResetsChannelState) {
  SpeakerHarness h;
  h.Deliver(h.MakeControl(0));
  ASSERT_TRUE(h.speaker_.ready());
  ASSERT_TRUE(h.speaker_.Tune(kFirstChannelGroup + 1).ok());
  EXPECT_FALSE(h.speaker_.ready());
  EXPECT_FALSE(h.nic_->IsJoined(kFirstChannelGroup));
  EXPECT_TRUE(h.nic_->IsJoined(kFirstChannelGroup + 1));
}

TEST(SpeakerTest, UntuneWithoutTuneFails) {
  Simulation sim;
  EthernetSegment segment(&sim, SegmentConfig{});
  auto nic = segment.CreateNic();
  EthernetSpeaker speaker(&sim, nic.get(), SpeakerOptions{});
  EXPECT_FALSE(speaker.Untune().ok());
}

TEST(SpeakerTest, AuthVerifierGatesEverything) {
  SpeakerOptions options;
  options.auth_verifier = [](const ParsedPacket&) { return false; };
  SpeakerHarness h(options);
  h.Deliver(h.MakeControl(0));
  EXPECT_FALSE(h.speaker_.ready());
  EXPECT_EQ(h.speaker_.stats().auth_rejected, 1u);
}

TEST(SpeakerTest, ConfigChangeMidStreamSwitchesDecoder) {
  SpeakerHarness h;
  h.Deliver(h.MakeControl(0));
  h.Deliver(h.MakeData(0, Milliseconds(50), 800));
  h.sim_.RunUntil(Milliseconds(60));
  // New control packet with a different config and bumped control_seq.
  ControlPacket control = h.MakeControl(h.sim_.now());
  control.control_seq = 2;
  control.config = AudioConfig{16000, 1, AudioEncoding::kLinearS16};
  h.Deliver(control);
  ASSERT_TRUE(h.speaker_.ready());
  EXPECT_EQ(h.speaker_.config()->sample_rate, 16000);
  // Output epoch restarted.
  EXPECT_EQ(h.speaker_.output()->segments().size(), 0u);
}

// ------------------------------------------- Multi-stream subscriptions --

TEST(SpeakerTest, SubscribeTwiceFails) {
  SpeakerHarness h;  // The harness ctor already tuned to kFirstChannelGroup.
  Status s = h.speaker_.Subscribe(kFirstChannelGroup);
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
}

TEST(SpeakerTest, UnsubscribeWithoutSubscriptionFails) {
  SpeakerHarness h;
  Status s = h.speaker_.Unsubscribe(kFirstChannelGroup + 9);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(SpeakerTest, ConcurrentSubscriptionsKeepStreamsSeparate) {
  SpeakerHarness h;
  const GroupId g2 = kFirstChannelGroup + 1;
  ASSERT_TRUE(h.speaker_.Subscribe(g2).ok());
  EXPECT_TRUE(h.nic_->IsJoined(kFirstChannelGroup));
  EXPECT_TRUE(h.nic_->IsJoined(g2));
  // Two producers, one per group, each with its own stream id.
  h.Deliver(h.MakeControl(0));
  h.DeliverTo(g2, h.MakeControl(0, /*stream_id=*/2));
  h.Deliver(h.MakeData(0, Milliseconds(100), 800));
  h.DeliverTo(g2, h.MakeData(0, Milliseconds(100), 800, /*stream_id=*/2));
  h.sim_.RunUntil(Milliseconds(200));
  // Aggregate stats sum across sessions; per-session stats stay separate.
  EXPECT_EQ(h.speaker_.stats().chunks_played, 2u);
  ASSERT_NE(h.speaker_.session(kFirstChannelGroup), nullptr);
  ASSERT_NE(h.speaker_.session(g2), nullptr);
  EXPECT_EQ(h.speaker_.session(kFirstChannelGroup)->stats().chunks_played,
            1u);
  EXPECT_EQ(h.speaker_.session(g2)->stats().chunks_played, 1u);
  // The legacy single-stream accessors keep exposing the first subscription.
  EXPECT_EQ(h.speaker_.tuned_group(), kFirstChannelGroup);
  EXPECT_EQ(h.speaker_.output(),
            h.speaker_.session(kFirstChannelGroup)->output());
}

TEST(SpeakerTest, RenderMixSumsConcurrentStreams) {
  SpeakerHarness h;
  const GroupId g2 = kFirstChannelGroup + 1;
  ASSERT_TRUE(h.speaker_.Subscribe(g2).ok());
  h.Deliver(h.MakeControl(0));
  h.DeliverTo(g2, h.MakeControl(0, /*stream_id=*/2));
  // Identical sine chunks with identical deadlines: the mix is exactly 2x.
  h.Deliver(h.MakeData(0, Milliseconds(100), 800));
  h.DeliverTo(g2, h.MakeData(0, Milliseconds(100), 800, /*stream_id=*/2));
  h.sim_.RunUntil(Milliseconds(250));
  std::vector<float> solo = h.speaker_.session(kFirstChannelGroup)
                                ->output()
                                ->Render(Milliseconds(100), Milliseconds(100));
  std::vector<float> mix =
      h.speaker_.RenderMix(Milliseconds(100), Milliseconds(100));
  ASSERT_EQ(mix.size(), solo.size());
  ASSERT_GT(Peak(solo), 0.0);
  EXPECT_NEAR(Peak(mix), 2.0 * Peak(solo), 1e-4);
}

TEST(SpeakerTest, UnsubscribeMidFlightDropsPipelineObligations) {
  SpeakerHarness h;
  h.Deliver(h.MakeControl(0));
  h.Deliver(h.MakeData(0, Milliseconds(100), 800));  // Decode in flight.
  ASSERT_TRUE(h.speaker_.Unsubscribe(kFirstChannelGroup).ok());
  EXPECT_TRUE(h.speaker_.subscriptions().empty());
  h.sim_.Run();  // The orphaned decode completes as a no-op.
  EXPECT_EQ(h.speaker_.stats().chunks_played, 0u);
  EXPECT_EQ(h.speaker_.queued_pcm_bytes(), 0u);
}

TEST(SpeakerTest, ResubscribeStartsAFreshSession) {
  SpeakerHarness h;
  h.Deliver(h.MakeControl(0));
  h.Deliver(h.MakeData(0, Milliseconds(100), 800));
  ASSERT_TRUE(h.speaker_.Unsubscribe(kFirstChannelGroup).ok());
  ASSERT_TRUE(h.speaker_.Subscribe(kFirstChannelGroup).ok());
  // The reincarnated session has not seen a control packet, and the stale
  // in-flight decode belongs to the dead epoch.
  EXPECT_FALSE(h.speaker_.ready());
  h.sim_.Run();
  EXPECT_EQ(h.speaker_.stats().chunks_played, 0u);
}

TEST(SpeakerTest, TuneDropsEveryCurrentSubscription) {
  SpeakerHarness h;
  ASSERT_TRUE(h.speaker_.Subscribe(kFirstChannelGroup + 1).ok());
  ASSERT_TRUE(h.speaker_.Tune(kFirstChannelGroup + 2).ok());
  ASSERT_EQ(h.speaker_.subscriptions().size(), 1u);
  EXPECT_EQ(h.speaker_.subscriptions()[0], kFirstChannelGroup + 2);
  EXPECT_FALSE(h.nic_->IsJoined(kFirstChannelGroup));
  EXPECT_FALSE(h.nic_->IsJoined(kFirstChannelGroup + 1));
  EXPECT_TRUE(h.nic_->IsJoined(kFirstChannelGroup + 2));
}

TEST(SpeakerTest, TrafficOnUnsubscribedGroupIsIgnored) {
  SpeakerHarness h;
  const GroupId stray = kFirstChannelGroup + 7;
  h.DeliverTo(stray, h.MakeControl(0, /*stream_id=*/9));
  EXPECT_FALSE(h.speaker_.ready());
  h.DeliverTo(stray, h.MakeData(0, Milliseconds(100), 800, /*stream_id=*/9));
  h.sim_.Run();
  EXPECT_EQ(h.speaker_.stats().chunks_played, 0u);
}

// --------------------------------------------------- zone decode sharing --
//
// A zone decodes each data packet once and every member whose decoder
// matches plays the same immutable chunk (SpeakerZone, DecodeCell): each
// member's k-th recorder segment points at the same storage.

std::unique_ptr<EthernetSpeakerSystem> RunZoneFleet(
    const SystemOptions& options, const std::vector<float>& gains) {
  auto system = std::make_unique<EthernetSpeakerSystem>(options);
  Channel* channel = *system->CreateChannel("music");
  for (size_t i = 0; i < gains.size(); ++i) {
    SpeakerOptions speaker_options;
    speaker_options.name = "es" + std::to_string(i);
    speaker_options.decode_speed_factor = 0.05;
    speaker_options.gain = gains[i];
    EXPECT_TRUE(system->AddSpeaker(speaker_options, channel->group).ok());
  }
  PlayerAppOptions player_options;
  player_options.config = AudioConfig::CdQuality();
  EXPECT_TRUE(system
                  ->StartPlayer(channel,
                                std::make_unique<MusicLikeGenerator>(11),
                                player_options)
                  .ok());
  system->RunUntil(Seconds(3));
  return system;
}

// The sample storage of every chunk a speaker played, in play order.
std::vector<const float*> ChunkStorage(EthernetSpeaker* speaker) {
  std::vector<const float*> storage;
  if (speaker->output() != nullptr) {
    for (const OutputRecorder::Segment& segment :
         speaker->output()->segments()) {
      storage.push_back(segment.samples.data());
    }
  }
  return storage;
}

TEST(ZoneDecodeSharingTest, MembersOfOneZoneShareEveryChunk) {
  auto system = RunZoneFleet(SystemOptions{}, {1.0f, 1.0f, 1.0f, 1.0f});
  const auto& speakers = system->speakers();
  const std::vector<const float*> first = ChunkStorage(speakers[0].get());
  ASSERT_GT(first.size(), 20u);
  for (const auto& speaker : speakers) {
    EXPECT_EQ(ChunkStorage(speaker.get()), first) << speaker->name();
  }
  // Nothing but the four recorders holds a played chunk.
  EXPECT_EQ(speakers[0]->output()->segments()[0].samples.use_count(), 4);
}

TEST(ZoneDecodeSharingTest, JitteredMembersStillShare) {
  SystemOptions options;
  options.lan.jitter = Milliseconds(2);
  auto system = RunZoneFleet(options, {1.0f, 1.0f, 1.0f, 1.0f});
  // Jitter spread the members' arrivals: some data packet reached two
  // speakers at different instants, so late members took the deferred
  // ingest route and decoded at their own instants.
  std::map<uint32_t, std::set<SimTime>> arrivals;
  std::set<uint32_t> played_seqs;
  ASSERT_EQ(system->tracer()->dropped(), 0u);
  for (const TraceEvent& e : system->tracer()->events()) {
    if (e.stage == TraceStage::kSpeakerReceive) {
      arrivals[e.seq].insert(e.at);
    } else if (e.stage == TraceStage::kPlay) {
      played_seqs.insert(e.seq);
    }
  }
  EXPECT_TRUE(std::any_of(arrivals.begin(), arrivals.end(),
                          [](const auto& a) { return a.second.size() > 1; }));
  // Jittered control packets also make members start at different packets,
  // so compare per packet, not per position: the zone holds exactly one
  // chunk per packet anyone played.
  std::set<const float*> chunks;
  for (const auto& speaker : system->speakers()) {
    const std::vector<const float*> storage = ChunkStorage(speaker.get());
    EXPECT_GT(storage.size(), 20u) << speaker->name();
    chunks.insert(storage.begin(), storage.end());
  }
  EXPECT_EQ(chunks.size(), played_seqs.size());
}

TEST(ZoneDecodeSharingTest, HalfGainMemberRendersExactlyHalf) {
  auto system = RunZoneFleet(SystemOptions{}, {1.0f, 0.5f});
  EthernetSpeaker* full = system->speakers()[0].get();
  EthernetSpeaker* half = system->speakers()[1].get();
  EXPECT_EQ(ChunkStorage(half), ChunkStorage(full));
  const std::vector<float> x = full->output()->Render(Seconds(1), Seconds(1));
  std::vector<float> expected = x;
  for (float& s : expected) {
    s = 0.5f * s;
  }
  ASSERT_GT(Peak(x), 0.0);
  EXPECT_TRUE(
      BitIdentical(half->output()->Render(Seconds(1), Seconds(1)), expected));
}

TEST(ZoneDecodeSharingTest, TwoZonesShareWithinEachAndMatchWidthOne) {
  SystemOptions options;
  options.sharded.zones = 2;
  options.sharded.threads = 2;
  const std::vector<float> gains(4, 1.0f);
  auto wide = RunZoneFleet(options, gains);
  options.sharded.threads = 1;
  auto narrow = RunZoneFleet(options, gains);

  const auto& speakers = wide->speakers();
  std::map<int, std::vector<const float*>> zone_storage;
  for (size_t i = 0; i < speakers.size(); ++i) {
    const std::vector<const float*> storage = ChunkStorage(speakers[i].get());
    ASSERT_GT(storage.size(), 20u);
    auto [it, first_member] = zone_storage.emplace(wide->ZoneOf(i), storage);
    if (!first_member) {
      EXPECT_EQ(storage, it->second) << "speaker " << i;
    }
  }
  // Each zone decoded on its own shard: the zones hold separate copies.
  ASSERT_EQ(zone_storage.size(), 2u);
  EXPECT_NE(zone_storage[0][0], zone_storage[1][0]);

  for (size_t i = 0; i < speakers.size(); ++i) {
    const SpeakerStats& a = speakers[i]->stats();
    const SpeakerStats& b = narrow->speakers()[i]->stats();
    EXPECT_EQ(a.chunks_played, b.chunks_played) << i;
    EXPECT_EQ(a.late_drops, b.late_drops) << i;
    EXPECT_EQ(a.decode_errors, b.decode_errors) << i;
    EXPECT_EQ(a.total_lateness_ns, b.total_lateness_ns) << i;
    EXPECT_EQ(a.silence_ns, b.silence_ns) << i;
    EXPECT_TRUE(BitIdentical(
        speakers[i]->output()->Render(Seconds(1), Seconds(2)),
        narrow->speakers()[i]->output()->Render(Seconds(1), Seconds(2))))
        << i;
  }
}

// ----------------------------------------------- zone payload ownership --
//
// A zone batch's payload slice lives in the batch's decode cell, once, not
// in every member's decode obligation: between admission and decode the
// arrival buffer's reference count does not depend on the zone's size.

class PayloadZone {
 public:
  // `odd_member` (if in range) adopts a control packet whose quality index
  // differs, so its DecoderKey differs from everyone else's.
  PayloadZone(int members, int odd_member)
      : segment_(&sim_, SegmentConfig{}), zone_(&sim_) {
    SpeakerOptions options;
    options.decode_speed_factor = 0.25;  // Decode lands in a later event.
    for (int i = 0; i < members; ++i) {
      nics_.push_back(segment_.CreateNic());
      options.name = "es" + std::to_string(i);
      speakers_.push_back(
          std::make_unique<EthernetSpeaker>(&sim_, nics_.back().get(), options));
      EXPECT_TRUE(speakers_.back()->Subscribe(kGroup).ok());
      nics_.back()->SetReceiveHandler(nullptr);  // The zone delivers.
      zone_.AddSpeaker(nics_.back().get(), speakers_.back().get());
    }
    ControlPacket control;
    control.stream_id = 1;
    control.control_seq = 1;
    control.config = config_;
    control.codec = CodecId::kRaw;
    control.quality = 10;
    std::vector<ZoneDeliveryEntry> common;
    std::vector<ZoneDeliveryEntry> odd;
    for (int i = 0; i < members; ++i) {
      (i == odd_member ? odd : common).push_back(ZoneDeliveryEntry{i, 0});
    }
    Deliver(SerializePacket(control), common);
    control.quality = 3;
    Deliver(SerializePacket(control), odd);
    sim_.Run();
  }

  void Deliver(const BufferSlice& payload,
               std::vector<ZoneDeliveryEntry> entries) {
    if (entries.empty()) return;
    Datagram d;
    d.group = kGroup;
    d.payload = payload;
    zone_.DeliverBatch(d, std::move(entries));
  }

  std::vector<ZoneDeliveryEntry> Everyone() const {
    std::vector<ZoneDeliveryEntry> entries;
    for (size_t i = 0; i < speakers_.size(); ++i) {
      entries.push_back(ZoneDeliveryEntry{static_cast<int>(i), sim_.now()});
    }
    return entries;
  }

  static constexpr GroupId kGroup = 5;
  AudioConfig config_{8000, 1, AudioEncoding::kLinearS16};
  Simulation sim_;
  EthernetSegment segment_;
  SpeakerZone zone_;
  std::vector<std::unique_ptr<SimNic>> nics_;
  std::vector<std::unique_ptr<EthernetSpeaker>> speakers_;
};

DataPacket PinData() {
  DataPacket data;
  data.stream_id = 1;
  data.seq = 0;
  data.play_deadline = Milliseconds(100);
  data.frame_count = 800;
  SineGenerator gen(440.0);
  data.payload =
      gen.GenerateBytes(800, AudioConfig{8000, 1, AudioEncoding::kLinearS16});
  return data;
}

TEST(ZonePayloadTest, MembersHoldNoPayloadReferenceOfTheirOwn) {
  const DataPacket data = PinData();
  int use_count[2] = {0, 0};
  const int sizes[2] = {1, 64};
  for (int k = 0; k < 2; ++k) {
    PayloadZone zone(sizes[k], /*odd_member=*/-1);
    const BufferSlice arrival = SerializePacketSlice(data);
    zone.Deliver(arrival, zone.Everyone());
    // Admitted everywhere, decode still pending.
    ASSERT_EQ(zone.speakers_[0]->queued_pcm_bytes(), 800 * sizeof(float));
    ASSERT_EQ(zone.speakers_[0]->stats().chunks_played, 0u);
    use_count[k] = arrival.use_count();
    zone.sim_.Run();
    for (const auto& speaker : zone.speakers_) {
      EXPECT_EQ(speaker->stats().chunks_played, 1u) << speaker->name();
    }
    // Played chunks hold decoded PCM, not the packet.
    EXPECT_EQ(arrival.use_count(), 1);
  }
  EXPECT_EQ(use_count[0], use_count[1]);
}

TEST(ZonePayloadTest, MemberWithAnotherDecoderKeyDecodesTheCellPayload) {
  const DataPacket data = PinData();
  const int odd = 1;
  PayloadZone zone(64, odd);
  zone.Deliver(SerializePacketSlice(data), zone.Everyone());
  zone.sim_.Run();

  Result<std::unique_ptr<AudioDecoder>> decoder =
      CreateDecoder(CodecId::kRaw, zone.config_, 3);
  ASSERT_TRUE(decoder.ok());
  Result<std::vector<float>> expected = (*decoder)->DecodePacket(data.payload);
  ASSERT_TRUE(expected.ok());
  ASSERT_GT(Peak(*expected), 0.0);
  const std::vector<const float*> shared = ChunkStorage(zone.speakers_[0].get());
  ASSERT_EQ(shared.size(), 1u);
  for (size_t i = 0; i < zone.speakers_.size(); ++i) {
    EthernetSpeaker* speaker = zone.speakers_[i].get();
    ASSERT_EQ(speaker->stats().chunks_played, 1u) << i;
    const SharedPcm& samples = speaker->output()->segments()[0].samples;
    EXPECT_TRUE(BitIdentical(std::vector<float>(samples.begin(), samples.end()),
                             *expected))
        << i;
    // Everyone but the odd member plays the cell's one decode.
    EXPECT_EQ(samples.data() == shared[0], i != odd) << i;
  }
}

// ------------------------------------------------------------ AutoVolume --

class AutoVolumeHarness {
 public:
  AutoVolumeHarness() : h_() {
    h_.Deliver(h_.MakeControl(0));
  }

  // Feeds `seconds` of tone at constant source level, ticking playback.
  void PlayTone(double seconds, float amplitude) {
    auto frames = static_cast<int64_t>(seconds * 8000);
    int64_t done = 0;
    uint32_t seq = next_seq_;
    while (done < frames) {
      int64_t n = std::min<int64_t>(800, frames - done);
      DataPacket data;
      data.stream_id = 1;
      data.seq = seq++;
      data.play_deadline = h_.sim_.now() + Milliseconds(50) +
                           FramesToDuration(done, 8000);
      data.frame_count = static_cast<uint32_t>(n);
      SineGenerator gen(440.0, amplitude);
      data.payload = gen.GenerateBytes(n, h_.config_);
      h_.Deliver(data);
      done += n;
    }
    next_seq_ = seq;
    h_.sim_.RunFor(Seconds(static_cast<int64_t>(seconds)) +
                   Milliseconds(100));
  }

  SpeakerHarness h_;
  uint32_t next_seq_ = 0;
};

TEST(AutoVolumeTest, GainRisesWithAmbientNoise) {
  AutoVolumeHarness harness;
  double ambient_level = 0.01;
  AutoVolumeOptions options;
  options.mode = VolumeMode::kBackgroundMusic;
  AutoVolumeController controller(
      &harness.h_.speaker_, [&](SimTime) { return ambient_level; }, options);
  controller.Start();

  harness.PlayTone(4.0, 0.3f);
  float quiet_gain = harness.h_.speaker_.gain();

  ambient_level = 0.08;  // The room gets loud.
  harness.PlayTone(4.0, 0.3f);
  float loud_gain = harness.h_.speaker_.gain();

  EXPECT_GT(loud_gain, quiet_gain * 2.0f);
  EXPECT_GE(controller.history().size(), 8u);
}

TEST(AutoVolumeTest, AnnouncementModeIsLouderThanMusicMode) {
  auto run = [](VolumeMode mode) {
    AutoVolumeHarness harness;
    AutoVolumeOptions options;
    options.mode = mode;
    AutoVolumeController controller(
        &harness.h_.speaker_, [](SimTime) { return 0.02; }, options);
    controller.Start();
    harness.PlayTone(5.0, 0.3f);
    return harness.h_.speaker_.gain();
  };
  float music = run(VolumeMode::kBackgroundMusic);
  float announcement = run(VolumeMode::kAnnouncement);
  EXPECT_GT(announcement, music * 2.0f);
}

TEST(AutoVolumeTest, EqualizesSourcesMasteredAtDifferentLevels) {
  // §5.2: "audio segments recorded at different volume levels produce the
  // same sound levels".
  auto output_level_for_source = [](float amplitude) {
    AutoVolumeHarness harness;
    AutoVolumeOptions options;
    AutoVolumeController controller(
        &harness.h_.speaker_, [](SimTime) { return 0.02; }, options);
    controller.Start();
    harness.PlayTone(6.0, amplitude);
    // Acoustic level near the end of the run.
    return harness.h_.speaker_.output()->RecentRms(harness.h_.sim_.now(),
                                                   Milliseconds(500));
  };
  double quiet_master = output_level_for_source(0.1f);
  double loud_master = output_level_for_source(0.6f);
  ASSERT_GT(quiet_master, 0.0);
  EXPECT_NEAR(loud_master / quiet_master, 1.0, 0.25);
}

TEST(AutoVolumeTest, SilenceDoesNotSlewTheGain) {
  AutoVolumeHarness harness;
  AutoVolumeOptions options;
  AutoVolumeController controller(
      &harness.h_.speaker_, [](SimTime) { return 0.05; }, options);
  controller.Start();
  float initial = harness.h_.speaker_.gain();
  harness.h_.sim_.RunFor(Seconds(5));  // Nothing playing.
  EXPECT_FLOAT_EQ(harness.h_.speaker_.gain(), initial);
}

TEST(AutoVolumeTest, GainStaysWithinConfiguredBounds) {
  AutoVolumeHarness harness;
  AutoVolumeOptions options;
  options.max_gain = 2.0f;
  options.min_gain = 0.2f;
  AutoVolumeController controller(
      &harness.h_.speaker_, [](SimTime) { return 0.5; },  // Very loud room.
      options);
  controller.Start();
  harness.PlayTone(5.0, 0.05f);  // Very quiet source.
  EXPECT_LE(harness.h_.speaker_.gain(), 2.0f);
}

}  // namespace
}  // namespace espk
