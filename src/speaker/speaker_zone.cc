#include "src/speaker/speaker_zone.h"

#include <algorithm>
#include <iterator>
#include <utility>
#include <variant>

namespace espk {

int SpeakerZone::AddSpeaker(SimNic* nic, EthernetSpeaker* speaker) {
  members_.push_back(Member{nic, speaker});
  return static_cast<int>(members_.size()) - 1;
}

template <typename Job>
void SpeakerZone::ScheduleGroups(std::vector<Job> jobs) {
  if (jobs.empty()) {
    return;
  }
  // Jitter-free common case: every member saw the same arrival and carries
  // the same decode backlog, so the whole batch shares one instant. Schedule
  // it as a single group without sorting or re-slicing — the path the
  // fleet's per-packet cost rests on.
  const SimTime first = jobs[0].at();
  if (std::all_of(jobs.begin() + 1, jobs.end(),
                  [first](const Job& job) { return job.at() == first; })) {
    sim_->ScheduleAt(first, [this, group = std::move(jobs)]() mutable {
      RunGroup(std::move(group));
    });
    return;
  }
  std::stable_sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    return a.at() < b.at();
  });
  size_t i = 0;
  while (i < jobs.size()) {
    size_t j = i + 1;
    while (j < jobs.size() && jobs[j].at() == jobs[i].at()) {
      ++j;
    }
    const SimTime at = jobs[i].at();
    std::vector<Job> group(
        std::make_move_iterator(jobs.begin() + static_cast<ptrdiff_t>(i)),
        std::make_move_iterator(jobs.begin() + static_cast<ptrdiff_t>(j)));
    sim_->ScheduleAt(at, [this, group = std::move(group)]() mutable {
      RunGroup(std::move(group));
    });
    i = j;
  }
}

void SpeakerZone::DeliverBatch(const Datagram& datagram,
                               std::vector<ZoneDeliveryEntry> entries) {
  // Parse ONCE for the whole zone. ParsePacket is a pure function of the
  // payload bytes, so the shared result is byte-identical to what each
  // member's own per-datagram parse would have produced.
  Result<ParsedPacket> parsed = ParsePacket(datagram.payload);
  // Decode ONCE for the whole zone too: a data packet's members share one
  // lazily filled cell, whichever instant each of them decodes at.
  LocalRef<DecodeCell> cell;
  if (parsed.ok()) {
    if (const auto* data = std::get_if<DataPacket>(&parsed->packet)) {
      cell = LocalRef<DecodeCell>::Make(data->payload);
    }
  }
  const SimTime now = sim_->now();
  std::vector<DecodeJob> jobs;
  jobs.reserve(entries.size());
  for (const ZoneDeliveryEntry& entry : entries) {
    const Member& member = members_[static_cast<size_t>(entry.member)];
    if (entry.arrival <= now) {
      Ingest(member, datagram, parsed, cell, &jobs);
      continue;
    }
    // Jitter pushed this member's arrival past the batch instant: fall back
    // to one event for it, still reusing the shared parse, payload and
    // decode cell.
    sim_->ScheduleAt(entry.arrival,
                     [this, index = entry.member, datagram, parsed, cell] {
                       std::vector<DecodeJob> late_jobs;
                       Ingest(members_[static_cast<size_t>(index)], datagram,
                              parsed, cell, &late_jobs);
                       ScheduleGroups(std::move(late_jobs));
                     });
  }
  ScheduleGroups(std::move(jobs));
}

void SpeakerZone::Ingest(const Member& member, const Datagram& datagram,
                         const Result<ParsedPacket>& parsed,
                         const LocalRef<DecodeCell>& cell,
                         std::vector<DecodeJob>* jobs) {
  if (member.nic->has_receive_handler()) {
    // A NIC sharer's handler sees every datagram and forwards audio to
    // EthernetSpeaker::HandleDatagram (the per-datagram route).
    member.nic->HandleArrival(datagram);
    return;
  }
  member.nic->NoteZoneDelivery(datagram.payload.size());
  PendingDecode pending;
  pending.cell = cell;
  member.speaker->IngestParsed(parsed, datagram.group, &pending);
  if (pending.valid) {
    jobs->push_back(DecodeJob{member.speaker, std::move(pending)});
  }
}

void SpeakerZone::RunGroup(std::vector<DecodeJob> jobs) {
  std::vector<PlayJob> plays;
  plays.reserve(jobs.size());
  for (DecodeJob& job : jobs) {
    PendingPlay play;
    job.speaker->RunDecode(job.pending, &play);
    if (play.valid) {
      plays.push_back(PlayJob{job.speaker, std::move(play)});
    }
  }
  ScheduleGroups(std::move(plays));
}

void SpeakerZone::RunGroup(std::vector<PlayJob> jobs) {
  for (PlayJob& job : jobs) {
    job.speaker->RunPlay(std::move(job.play));
  }
}

}  // namespace espk
