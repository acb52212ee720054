// Per-layer replay for the traced run: the workload's own inputs — the
// datagrams a tap NIC captures from its channel groups, and its players'
// generator PCM — are pushed through each layer's public entry points in
// isolation, timed per call. Spans cover each layer's replay.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "perfbench/spans.h"
#include "perfbench/workloads.h"
#include "src/lan/transport.h"

namespace espk::perfbench {

struct CapturedDatagram {
  Datagram datagram;
  SimTime arrival = 0;
};

struct Capture {
  std::vector<CapturedDatagram> datagrams;  // Every channel, arrival order.
  std::vector<GroupId> groups;              // Channel c's group.
  uint64_t data_packets = 0;
};

// Builds the workload's producers with no speakers plus a tap NIC joined
// to every channel group, runs the pass's simulated span, and returns what
// the tap received.
Capture CaptureWorkload(const WorkloadSpec& spec, uint64_t seed);

// Host ns per call (or per packet / per event) of each layer on replay.
struct LayerCosts {
  double parse_ns = 0.0;
  double serialize_ns = 0.0;
  double decode_ns = 0.0;
  double encode_ns = 0.0;
  // EthernetSpeaker stages, each per datagram delivered to the speaker.
  double ingest_ns = 0.0;          // IngestParsed
  double speaker_decode_ns = 0.0;  // RunDecode
  double play_ns = 0.0;            // RunPlay
  double decodes_per_delivery = 0.0;  // RunDecode calls per datagram.
  double transmit_ns = 0.0;  // SendMulticast + Run, full membership
  double engine_ns = 0.0;    // ScheduleAt + Run, per event
};

// Replays `capture` (and the generator PCM) through every layer. Each
// layer repeats its replay until it has run for at least `min_ns`.
LayerCosts ReplayLayers(const WorkloadSpec& spec, uint64_t seed,
                        const Capture& capture, int64_t min_ns,
                        SpanLog* spans);

}  // namespace espk::perfbench

#endif  // PERFBENCH_LAYERS_H_
