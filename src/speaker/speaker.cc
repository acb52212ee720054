#include "src/speaker/speaker.h"

#include <algorithm>
#include <utility>

#include "src/base/logging.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace espk {

EthernetSpeaker::EthernetSpeaker(Simulation* sim, Transport* nic,
                                 const SpeakerOptions& options)
    : sim_(sim),
      nic_(nic),
      options_(options),
      tracer_(options.tracer),
      node_id_(nic->node_id()) {
  nic_->SetReceiveHandler(
      [this](const Datagram& datagram) { HandleDatagram(datagram); });
}

EthernetSpeaker::~EthernetSpeaker() = default;

Status EthernetSpeaker::Subscribe(GroupId group) {
  if (FindSession(group) != nullptr) {
    return AlreadyExistsError("already subscribed to group " +
                              std::to_string(group));
  }
  ESPK_RETURN_IF_ERROR(nic_->JoinGroup(group));
  subscribe_order_.push_back(group);
  sessions_.push_back(
      std::make_unique<StreamSession>(this, group, ++next_session_epoch_));
  return OkStatus();
}

Status EthernetSpeaker::Unsubscribe(GroupId group) {
  const auto it =
      std::find(subscribe_order_.begin(), subscribe_order_.end(), group);
  if (it == subscribe_order_.end()) {
    return NotFoundError("not subscribed to group " + std::to_string(group));
  }
  ESPK_RETURN_IF_ERROR(nic_->LeaveGroup(group));
  // The session's share of the jitter buffer leaves with it; in-flight
  // pipeline obligations carry its (now stale) epoch and become no-ops.
  sessions_.erase(sessions_.begin() + (it - subscribe_order_.begin()));
  subscribe_order_.erase(it);
  if (sessions_.empty()) {
    // Matches the historical Tune/Untune reset: an idle device's decode
    // pipeline does not stay busy into its next subscription.
    decode_busy_until_ = sim_->now();
  }
  return OkStatus();
}

Status EthernetSpeaker::Tune(GroupId group) {
  while (!subscribe_order_.empty()) {
    ESPK_RETURN_IF_ERROR(Unsubscribe(subscribe_order_.front()));
  }
  return Subscribe(group);
}

Status EthernetSpeaker::Untune() {
  if (subscribe_order_.empty()) {
    return FailedPreconditionError("not tuned to any channel");
  }
  while (!subscribe_order_.empty()) {
    ESPK_RETURN_IF_ERROR(Unsubscribe(subscribe_order_.front()));
  }
  return OkStatus();
}

std::optional<GroupId> EthernetSpeaker::tuned_group() const {
  if (subscribe_order_.empty()) {
    return std::nullopt;
  }
  return subscribe_order_.front();
}

StreamSession* EthernetSpeaker::FindSession(GroupId group) const {
  for (size_t i = 0; i < subscribe_order_.size(); ++i) {
    if (subscribe_order_[i] == group) {
      return sessions_[i].get();
    }
  }
  return nullptr;
}

StreamSession* EthernetSpeaker::session(GroupId group) {
  return FindSession(group);
}

const StreamSession* EthernetSpeaker::session(GroupId group) const {
  return FindSession(group);
}

StreamSession* EthernetSpeaker::primary() {
  return sessions_.empty() ? nullptr : sessions_.front().get();
}

const StreamSession* EthernetSpeaker::primary() const {
  return sessions_.empty() ? nullptr : sessions_.front().get();
}

OutputRecorder* EthernetSpeaker::output() {
  StreamSession* p = primary();
  return p == nullptr ? nullptr : p->output();
}

const std::optional<AudioConfig>& EthernetSpeaker::config() const {
  const StreamSession* p = primary();
  return p == nullptr ? no_config_ : p->config();
}

bool EthernetSpeaker::ready() const {
  for (const auto& session : sessions_) {
    if (session->ready()) {
      return true;
    }
  }
  return false;
}

size_t EthernetSpeaker::queued_pcm_bytes() const {
  size_t total = 0;
  for (const auto& session : sessions_) {
    total += session->queued_pcm_bytes();
  }
  return total;
}

std::vector<float> EthernetSpeaker::RenderMix(SimTime from,
                                              SimDuration duration) {
  StreamSession* base = nullptr;
  for (const auto& session : sessions_) {
    if (session->ready()) {
      base = session.get();
      break;
    }
  }
  if (base == nullptr) {
    return {};
  }
  std::vector<float> mix = base->output()->Render(from, duration);
  for (const auto& session : sessions_) {
    StreamSession* s = session.get();
    if (s == base || !s->ready() ||
        s->config()->sample_rate != base->config()->sample_rate ||
        s->config()->channels != base->config()->channels) {
      continue;
    }
    std::vector<float> other = s->output()->Render(from, duration);
    const size_t n = std::min(mix.size(), other.size());
    for (size_t i = 0; i < n; ++i) {
      mix[i] += other[i];
    }
  }
  return mix;
}

void EthernetSpeaker::HandleDatagram(const Datagram& datagram) {
  Result<ParsedPacket> parsed = ParsePacket(datagram.payload);
  PendingDecode pending;
  IngestParsed(parsed, datagram.group, &pending);
  CommitDecode(std::move(pending));
}

void EthernetSpeaker::IngestParsed(const Result<ParsedPacket>& parsed,
                                   GroupId group, PendingDecode* out) {
  ++stats_.packets_received;
  if (!parsed.ok()) {
    // Damaged or non-protocol datagram: integrity check failed (§5.1).
    ++stats_.bad_packets;
    return;
  }
  if (options_.auth_verifier && !options_.auth_verifier(*parsed)) {
    ++stats_.auth_rejected;
    return;
  }
  StreamSession* session = FindSession(group);
  if (session == nullptr) {
    // No subscription for this group. Possible transiently: packets already
    // queued on the wire when an unsubscribe's membership change lands.
    return;
  }
  if (const auto* control = std::get_if<ControlPacket>(&parsed->packet)) {
    session->HandleControl(*control);
  } else if (const auto* data = std::get_if<DataPacket>(&parsed->packet)) {
    session->HandleData(*data, out);
  }
  // Announce packets are handled by the catalog browser (src/mgmt), not by
  // the playback path.
}

void EthernetSpeaker::CommitDecode(PendingDecode pending) {
  if (!pending.valid) {
    return;
  }
  const SimTime decode_done = pending.decode_done;
  sim_->ScheduleAt(decode_done, [this, pending = std::move(pending)] {
    PendingPlay play;
    RunDecode(pending, &play);
    CommitPlay(std::move(play));
  });
}

void EthernetSpeaker::CommitPlay(PendingPlay play) {
  if (!play.valid) {
    return;
  }
  const SimTime at = play.at;
  sim_->ScheduleAt(at, [this, play = std::move(play)]() mutable {
    RunPlay(std::move(play));
  });
}

void EthernetSpeaker::Trace(uint32_t stream_id, uint32_t seq,
                            TraceStage stage) {
  if (tracer_ != nullptr) {
    tracer_->Record(stream_id, seq, stage, node_id_);
  }
}

void EthernetSpeaker::RunDecode(const PendingDecode& pending,
                                PendingPlay* out_play) {
  StreamSession* session = FindSession(pending.group);
  if (session == nullptr || session->epoch() != pending.session_epoch) {
    return;  // Unsubscribed while the chunk was in the pipeline.
  }
  session->RunDecode(pending, out_play);
}

void EthernetSpeaker::RunPlay(PendingPlay play) {
  StreamSession* session = FindSession(play.group);
  if (session == nullptr || session->epoch() != play.session_epoch) {
    return;  // Unsubscribed while the chunk was in the pipeline.
  }
  session->RunPlay(std::move(play));
}

}  // namespace espk
