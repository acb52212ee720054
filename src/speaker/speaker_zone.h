// SpeakerZone: the batch receiver every EthernetSpeakerSystem speaker is
// delivered through — one zone per shard, so a classic (zones = 1) system
// has exactly one zone holding every speaker.
//
// Delivering per NIC would cost one scheduled event + one packet parse per
// speaker per packet. A zone collapses that to per-PACKET cost: the
// segment hands the zone ONE message carrying the shared payload slice and
// a member list (src/lan/segment.h ZoneSink); the zone parses once, runs
// every member's admission stage inline, then schedules ONE event per
// distinct decode-completion instant and ONE per distinct playout instant
// for the whole zone. On a symmetric fleet (same codec config, idle
// pipelines) those instants coincide across members, so a 1000-speaker
// zone rides three events per packet instead of three thousand — the LAN
// premise that "everybody receives a multicast packet at the same time"
// (§3.2) applied to the simulator itself.
//
// The zone also DECODES once per packet: DeliverBatch gives every member's
// decode obligation the same lazily filled DecodeCell (src/speaker/
// speaker.h), so the first member to decode fills it and every member whose
// session decoder matches plays that same immutable SharedPcm chunk —
// jittered late members included. Each member still pays its own simulated
// decode time (§3.4); only the host's work and memory are shared. The cell
// and its chunk never leave this zone's shard. The cell also holds the
// batch's one reference to the payload slice, so admitting a member costs
// no refcount operation on the arrival buffer — an atomic one on a zone off
// the sender's shard.
//
// Every member stage is the speaker's own batched pipeline surface
// (IngestParsed / RunDecode / RunPlay — src/speaker/speaker.h), the same
// stages the per-datagram route (HandleDatagram) wraps one-per-event, so
// both routes play identically by construction.
//
// NIC sharers: a component that shares a member's NIC (SpeakerAgent, a
// CatalogBrowser chain) installs its own receive handler after the zone
// took the NIC over. The zone then hands that member's datagrams to
// SimNic::HandleArrival instead of the batched stages; the handler
// forwards audio to EthernetSpeaker::HandleDatagram. The handler runs on
// the zone's shard, so this works on home-shard zones only (zone 0, or
// every speaker of a classic system); SimNic asserts it.
//
// A zone is NOT one stream: the segment filters each transmission by group
// membership before batching, so a batch's entry list is exactly the
// (group -> member-speaker subset) of this zone subscribed to the packet's
// group, and each member routes the parse result to its own per-group
// StreamSession. Zones with members on several channels ride the same
// batched path with no extra events.
#ifndef SRC_SPEAKER_SPEAKER_ZONE_H_
#define SRC_SPEAKER_SPEAKER_ZONE_H_

#include <vector>

#include "src/lan/segment.h"
#include "src/proto/wire.h"
#include "src/sim/simulation.h"
#include "src/speaker/speaker.h"

namespace espk {

class SpeakerZone : public ZoneSink {
 public:
  explicit SpeakerZone(Simulation* sim) : sim_(sim) {}

  // Registers a member and returns its index (the `member` tag the segment
  // stamps on deliveries via AssignZone). The zone borrows both pointers;
  // the caller keeps them alive for the zone's lifetime.
  int AddSpeaker(SimNic* nic, EthernetSpeaker* speaker);
  size_t size() const { return members_.size(); }

  // ZoneSink: runs on this zone's shard at the batch's earliest arrival.
  void DeliverBatch(const Datagram& datagram,
                    std::vector<ZoneDeliveryEntry> entries) override;

 private:
  struct Member {
    SimNic* nic = nullptr;
    EthernetSpeaker* speaker = nullptr;
  };
  struct DecodeJob {
    EthernetSpeaker* speaker = nullptr;
    PendingDecode pending;
    SimTime at() const { return pending.decode_done; }
  };
  struct PlayJob {
    EthernetSpeaker* speaker = nullptr;
    PendingPlay play;
    SimTime at() const { return play.at; }
  };

  // Admission for one member at its arrival instant; appends the decode
  // obligation (if the packet was accepted), carrying the batch's decode
  // cell, to `jobs`. A shared NIC gets the datagram through its handler
  // instead.
  void Ingest(const Member& member, const Datagram& datagram,
              const Result<ParsedPacket>& parsed,
              const LocalRef<DecodeCell>& cell, std::vector<DecodeJob>* jobs);
  // Groups jobs by at() and schedules one RunGroup event per distinct
  // instant — the zone path's whole reason to exist.
  template <typename Job>
  void ScheduleGroups(std::vector<Job> jobs);
  // Decodes a same-instant group and schedules the resulting plays.
  void RunGroup(std::vector<DecodeJob> jobs);
  // Plays a same-instant group.
  void RunGroup(std::vector<PlayJob> jobs);

  Simulation* sim_;
  std::vector<Member> members_;
};

}  // namespace espk

#endif  // SRC_SPEAKER_SPEAKER_ZONE_H_
