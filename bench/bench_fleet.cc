// Fleet-scale throughput of the runtime: the same fleet (one channel, N
// tuned speakers, music-like source) is driven for a fixed stretch of
// simulated time as a classic single-loop system (zones=1) and as a
// sharded one (4 per-zone event loops, SPSC handoff), and the host-side
// wall clock per delivered packet is reported for both.
//
// Both arms deliver through zone batches: the segment hands each zone ONE
// message per packet, the zone parses once, and runs one grouped
// decode/play event per distinct instant. Delivering per NIC instead
// costs ~3 simulator events per packet PER SPEAKER (arrival, decode,
// play); the batched path costs a handful per packet per zone. The
// structural bar is simulation events per delivery <= 1.0 at the 1k tier,
// for both arms — machine-independent, so it gets no noise margin.
//
// A rider microbench times the event engine underneath both arms: N
// pseudo-random timers scheduled and dispatched through the hierarchical
// timer wheel + open-addressing EventMap.
//
// The emitted BENCH_fleet.json is validated by bench_gate against
// bench/baselines/BENCH_fleet_baseline.json: classic and sharded modes
// must deliver IDENTICAL packet counts (the determinism contract, gated
// structurally), events per delivery must stay <= 1.0, and the sharded
// ns/delivery gets the shared-machine noise margin. `--quick` (used by the
// espk_bench_smoke ctest) shortens the simulated windows; the 10k-speaker
// tier runs even in quick mode so the smoke test proves the big
// configuration completes.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/system.h"
#include "src/sim/simulation.h"

namespace espk {
namespace {

constexpr int kSchemaVersion = 1;
constexpr int kZones = 4;
constexpr int kSpeakersSmall = 100;
constexpr int kSpeakersMid = 1000;
constexpr int kSpeakersLarge = 10000;
constexpr int kMultiChannels = 4;
constexpr int kSpeakersMulti = 400;  // 100 per channel, round-robin zones.

struct FleetMeasurement {
  int speakers = 0;
  int zones = 0;
  uint64_t deliveries = 0;  // Per-receiver data-packet deliveries.
  uint64_t chunks_played = 0;
  uint64_t messages_posted = 0;
  uint64_t events = 0;  // Simulation events processed, all shards.
  double wall_ms = 0.0;
  double packets_per_sec = 0.0;   // Deliveries processed per wall second.
  double ns_per_delivery = 0.0;   // Wall ns per packet per speaker.
  double events_per_delivery = 0.0;
};

uint64_t EventsProcessed(EthernetSpeakerSystem* system) {
  uint64_t events = 0;
  for (int z = 0; z < system->zones(); ++z) {
    events += system->zone_sim(z)->events_processed();
  }
  return events;
}

// Fills the per-run fields shared by both fleet shapes; the events counted
// are those of the timed window only.
FleetMeasurement Measure(EthernetSpeakerSystem* system, int speakers,
                         int zones, int sim_ms) {
  using Clock = std::chrono::steady_clock;
  const uint64_t events0 = EventsProcessed(system);
  const auto t0 = Clock::now();
  system->RunUntil(Milliseconds(sim_ms));
  const auto t1 = Clock::now();

  FleetMeasurement m;
  m.speakers = speakers;
  m.zones = zones;
  m.deliveries = system->lan()->stats().deliveries;
  m.messages_posted = system->shards()->messages_posted();
  m.events = EventsProcessed(system) - events0;
  for (const auto& speaker : system->speakers()) {
    m.chunks_played += speaker->stats().chunks_played;
  }
  const double wall_ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count();
  m.wall_ms = wall_ns / 1e6;
  if (m.deliveries > 0) {
    m.ns_per_delivery = wall_ns / static_cast<double>(m.deliveries);
    m.packets_per_sec = static_cast<double>(m.deliveries) / (wall_ns / 1e9);
    m.events_per_delivery =
        static_cast<double>(m.events) / static_cast<double>(m.deliveries);
  }
  return m;
}

// One channel, `speakers` tuned speakers, 4 ms phone-quality packets (the
// per-packet decode work is deliberately small so the run measures the
// runtime's per-event machinery, which is what zone batching collapses).
FleetMeasurement MeasureFleet(int speakers, int zones, int sim_ms) {
  SystemOptions options;
  options.sharded.zones = zones;
  options.sharded.threads = 1;  // One core: the win is serial, not parallel.
  EthernetSpeakerSystem system(options);

  RebroadcasterOptions rb;
  rb.codec_override = CodecId::kRaw;
  rb.packet_frames = 32;  // 4 ms at 8 kHz: a low-latency streaming chunk.
  Channel* channel = *system.CreateChannel("music", rb);
  SpeakerOptions so;
  so.decode_speed_factor = 0.02;
  for (int i = 0; i < speakers; ++i) {
    so.name = "es-" + std::to_string(i);
    (void)*system.AddSpeaker(so, channel->group);
  }
  PlayerAppOptions opts;
  opts.config = AudioConfig::PhoneQuality();
  opts.chunk_frames = 1600;
  if (!system
           .StartPlayer(channel, std::make_unique<MusicLikeGenerator>(21),
                        opts)
           .ok()) {
    std::fprintf(stderr, "FAIL: player did not start\n");
    std::exit(1);
  }

  return Measure(&system, speakers, zones, sim_ms);
}

// Multi-channel tier: `channels` concurrent streams with the speaker fleet
// spread across them round-robin, so each zone carries a mix of groups and
// the segment's fan-out filters per (group, member) — the service-plane
// configuration the subscription directory manages. Classic vs sharded must
// still agree exactly.
FleetMeasurement MeasureMultiChannelFleet(int channels, int speakers,
                                          int zones, int sim_ms) {
  SystemOptions options;
  options.sharded.zones = zones;
  options.sharded.threads = 1;
  EthernetSpeakerSystem system(options);

  std::vector<Channel*> fleet_channels;
  for (int c = 0; c < channels; ++c) {
    RebroadcasterOptions rb;
    rb.codec_override = CodecId::kRaw;
    rb.packet_frames = 32;
    fleet_channels.push_back(
        *system.CreateChannel("music-" + std::to_string(c), rb));
  }
  SpeakerOptions so;
  so.decode_speed_factor = 0.02;
  for (int i = 0; i < speakers; ++i) {
    so.name = "es-" + std::to_string(i);
    (void)*system.AddSpeaker(
        so, fleet_channels[static_cast<size_t>(i % channels)]->group);
  }
  for (int c = 0; c < channels; ++c) {
    PlayerAppOptions opts;
    opts.config = AudioConfig::PhoneQuality();
    opts.chunk_frames = 1600;
    if (!system
             .StartPlayer(fleet_channels[static_cast<size_t>(c)],
                          std::make_unique<MusicLikeGenerator>(
                              31 + static_cast<uint64_t>(c)),
                          opts)
             .ok()) {
      std::fprintf(stderr, "FAIL: player %d did not start\n", c);
      std::exit(1);
    }
  }

  return Measure(&system, speakers, zones, sim_ms);
}

// Engine microbench: schedule `events` callbacks at pseudo-random times in
// a 1 s window, then dispatch them all. Covers the full per-event path —
// wheel insert, EventMap callback storage, pop, erase.
double MeasureEngineNsPerEvent(int events) {
  using Clock = std::chrono::steady_clock;
  Simulation sim;
  uint64_t lcg = 0x9e3779b97f4a7c15ull;
  volatile uint64_t sink = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < events; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const SimTime at = static_cast<SimTime>(lcg % Seconds(1));
    sim.ScheduleAt(at, [&sink] { sink = sink + 1; });
  }
  sim.Run();
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(events);
}

int RunFleetBench(bool quick) {
  PrintHeader("A9",
              "fleet-scale sharded runtime: packets/sec, 1 loop vs 4 zones");
  PrintPaperNote(
      "one multicast transmission reaches every speaker (§2.2); zone "
      "batching extends that to the simulator itself: one handoff per zone "
      "and one grouped decode/play event per instant, instead of three "
      "events per packet per speaker");

  // Warmup: first system in the process pays page faults and allocator
  // growth that would otherwise bias whichever mode runs first.
  (void)MeasureFleet(kSpeakersSmall, 1, quick ? 200 : 500);

  struct Tier {
    int speakers;
    int sim_ms;
  };
  const Tier tiers[3] = {
      {kSpeakersSmall, quick ? 2000 : 4000},
      {kSpeakersMid, quick ? 1000 : 2000},
      {kSpeakersLarge, quick ? 500 : 1000},
  };
  FleetMeasurement classic[3];
  FleetMeasurement sharded[3];
  Table table({"speakers", "mode", "deliveries", "wall ms", "us/delivery",
               "pkts/sec", "speedup", "events/delivery"});
  for (int t = 0; t < 3; ++t) {
    // Best-of-N at the gated 1k tier: each run is hundreds of milliseconds,
    // so a single sample is at the mercy of the host scheduler; the minimum
    // is the run with the least interference and the number that converges
    // across machines (same rationale as bench_trace).
    const int reps = tiers[t].speakers == kSpeakersMid ? 3 : 1;
    classic[t] = MeasureFleet(tiers[t].speakers, 1, tiers[t].sim_ms);
    sharded[t] = MeasureFleet(tiers[t].speakers, kZones, tiers[t].sim_ms);
    for (int rep = 1; rep < reps; ++rep) {
      FleetMeasurement c = MeasureFleet(tiers[t].speakers, 1, tiers[t].sim_ms);
      if (c.wall_ms < classic[t].wall_ms) {
        classic[t] = c;
      }
      FleetMeasurement s =
          MeasureFleet(tiers[t].speakers, kZones, tiers[t].sim_ms);
      if (s.wall_ms < sharded[t].wall_ms) {
        sharded[t] = s;
      }
    }
    const double speedup =
        classic[t].packets_per_sec > 0.0
            ? sharded[t].packets_per_sec / classic[t].packets_per_sec
            : 0.0;
    table.Row({std::to_string(tiers[t].speakers), "classic",
               std::to_string(classic[t].deliveries),
               Fmt(classic[t].wall_ms, 1),
               Fmt(classic[t].ns_per_delivery / 1000.0),
               Fmt(classic[t].packets_per_sec / 1e6) + "M", "1.00",
               Fmt(classic[t].events_per_delivery, 3)});
    table.Row({std::to_string(tiers[t].speakers),
               std::to_string(kZones) + " zones",
               std::to_string(sharded[t].deliveries),
               Fmt(sharded[t].wall_ms, 1),
               Fmt(sharded[t].ns_per_delivery / 1000.0),
               Fmt(sharded[t].packets_per_sec / 1e6) + "M", Fmt(speedup),
               Fmt(sharded[t].events_per_delivery, 3)});
  }

  // Structural sanity inside the harness itself: both modes must have
  // simulated the same fleet, the classic mode must have stayed on its one
  // shard, and the sharded mode must actually have posted across shards.
  for (int t = 0; t < 3; ++t) {
    if (classic[t].deliveries == 0 ||
        classic[t].deliveries != sharded[t].deliveries) {
      std::fprintf(stderr,
                   "FAIL: tier %d delivered %llu (classic) vs %llu "
                   "(sharded); the modes diverged\n",
                   classic[t].speakers,
                   static_cast<unsigned long long>(classic[t].deliveries),
                   static_cast<unsigned long long>(sharded[t].deliveries));
      return 1;
    }
    if (classic[t].chunks_played != sharded[t].chunks_played ||
        classic[t].chunks_played == 0) {
      std::fprintf(stderr, "FAIL: tier %d played %llu vs %llu chunks\n",
                   classic[t].speakers,
                   static_cast<unsigned long long>(classic[t].chunks_played),
                   static_cast<unsigned long long>(sharded[t].chunks_played));
      return 1;
    }
    if (classic[t].messages_posted != 0 || sharded[t].messages_posted == 0) {
      std::fprintf(stderr,
                   "FAIL: tier %d posted %llu (classic) / %llu (sharded) "
                   "cross-shard messages; want 0 / > 0\n",
                   classic[t].speakers,
                   static_cast<unsigned long long>(classic[t].messages_posted),
                   static_cast<unsigned long long>(sharded[t].messages_posted));
      return 1;
    }
  }

  // Multi-channel tier: 4 channels x 4 zones. Each zone carries all four
  // groups, so the zone handoff path filters per (group, member subset).
  const int multi_sim_ms = quick ? 1000 : 2000;
  FleetMeasurement multi_classic = MeasureMultiChannelFleet(
      kMultiChannels, kSpeakersMulti, 1, multi_sim_ms);
  FleetMeasurement multi_sharded = MeasureMultiChannelFleet(
      kMultiChannels, kSpeakersMulti, kZones, multi_sim_ms);
  const double multi_speedup =
      multi_classic.packets_per_sec > 0.0
          ? multi_sharded.packets_per_sec / multi_classic.packets_per_sec
          : 0.0;
  table.Row({std::to_string(kSpeakersMulti) + "/4ch", "classic",
             std::to_string(multi_classic.deliveries),
             Fmt(multi_classic.wall_ms, 1),
             Fmt(multi_classic.ns_per_delivery / 1000.0),
             Fmt(multi_classic.packets_per_sec / 1e6) + "M", "1.00",
             Fmt(multi_classic.events_per_delivery, 3)});
  table.Row({std::to_string(kSpeakersMulti) + "/4ch",
             std::to_string(kZones) + " zones",
             std::to_string(multi_sharded.deliveries),
             Fmt(multi_sharded.wall_ms, 1),
             Fmt(multi_sharded.ns_per_delivery / 1000.0),
             Fmt(multi_sharded.packets_per_sec / 1e6) + "M",
             Fmt(multi_speedup), Fmt(multi_sharded.events_per_delivery, 3)});
  if (multi_classic.deliveries == 0 ||
      multi_classic.deliveries != multi_sharded.deliveries ||
      multi_classic.chunks_played != multi_sharded.chunks_played) {
    std::fprintf(stderr,
                 "FAIL: multi-channel tier diverged: %llu/%llu deliveries, "
                 "%llu/%llu chunks\n",
                 static_cast<unsigned long long>(multi_classic.deliveries),
                 static_cast<unsigned long long>(multi_sharded.deliveries),
                 static_cast<unsigned long long>(multi_classic.chunks_played),
                 static_cast<unsigned long long>(multi_sharded.chunks_played));
    return 1;
  }
  if (multi_sharded.messages_posted == 0) {
    std::fprintf(stderr, "FAIL: multi-channel tier zone path not exercised\n");
    return 1;
  }

  const int engine_events = quick ? 100000 : 400000;
  const double wheel_ns = MeasureEngineNsPerEvent(engine_events);
  std::printf(
      "engine microbench (%d events): timer wheel + EventMap %.0f ns/event\n",
      engine_events, wheel_ns);

  JsonWriter json;
  json.Str("bench", "fleet");
  json.Int("schema_version", kSchemaVersion);
  json.Int("zones", kZones);
  json.Int("speakers_small", kSpeakersSmall);
  json.Int("speakers_mid", kSpeakersMid);
  json.Int("speakers_large", kSpeakersLarge);
  json.Int("deliveries_small", classic[0].deliveries);
  json.Int("deliveries_mid", classic[1].deliveries);
  json.Int("deliveries_large", classic[2].deliveries);
  json.Int("sharded_deliveries_small", sharded[0].deliveries);
  json.Int("sharded_deliveries_mid", sharded[1].deliveries);
  json.Int("sharded_deliveries_large", sharded[2].deliveries);
  json.Int("sharded_messages_posted_mid", sharded[1].messages_posted);
  json.Num("classic_pps_small", classic[0].packets_per_sec);
  json.Num("classic_pps_mid", classic[1].packets_per_sec);
  json.Num("classic_pps_large", classic[2].packets_per_sec);
  json.Num("sharded_pps_small", sharded[0].packets_per_sec);
  json.Num("sharded_pps_mid", sharded[1].packets_per_sec);
  json.Num("sharded_pps_large", sharded[2].packets_per_sec);
  json.Num("speedup_small",
           sharded[0].packets_per_sec / classic[0].packets_per_sec);
  json.Num("speedup_mid",
           sharded[1].packets_per_sec / classic[1].packets_per_sec);
  json.Num("speedup_large",
           sharded[2].packets_per_sec / classic[2].packets_per_sec);
  json.Num("classic_events_per_delivery_mid", classic[1].events_per_delivery);
  json.Num("sharded_events_per_delivery_mid", sharded[1].events_per_delivery);
  json.Num("classic_ns_per_delivery_large", classic[2].ns_per_delivery);
  json.Num("sharded_ns_per_delivery_large", sharded[2].ns_per_delivery);
  json.Int("multichannel_channels", kMultiChannels);
  json.Int("multichannel_speakers", kSpeakersMulti);
  json.Int("multichannel_deliveries", multi_classic.deliveries);
  json.Int("multichannel_sharded_deliveries", multi_sharded.deliveries);
  json.Num("multichannel_classic_pps", multi_classic.packets_per_sec);
  json.Num("multichannel_sharded_pps", multi_sharded.packets_per_sec);
  json.Num("multichannel_speedup", multi_speedup);
  json.Num("wheel_ns_per_event", wheel_ns);
  if (!json.WriteFile("BENCH_fleet.json")) {
    return 1;
  }
  std::printf("wrote BENCH_fleet.json\n");
  return 0;
}

}  // namespace
}  // namespace espk

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
  }
  return espk::RunFleetBench(quick);
}
