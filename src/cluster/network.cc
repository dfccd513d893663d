#include "src/cluster/network.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "src/cluster/invoker.h"
#include "src/common/logging.h"

namespace faas {

const char* NetMessageKindName(NetMessageKind kind) {
  switch (kind) {
    case NetMessageKind::kProbeRequest:
      return "probe_request";
    case NetMessageKind::kProbeResponse:
      return "probe_response";
    case NetMessageKind::kNotify:
      return "notify";
    case NetMessageKind::kNotifyAck:
      return "notify_ack";
    case NetMessageKind::kRaw:
      return "raw";
  }
  return "unknown";
}

NetworkModel::NetworkModel(EventQueue* queue, const NetworkConfig& config,
                           const FaultPlan* faults, int num_invokers, Rng rng,
                           TelemetryWriter* telemetry)
    : queue_(queue),
      config_(config),
      faults_(faults),
      num_invokers_(num_invokers),
      telemetry_(telemetry) {
  FAAS_CHECK(queue_ != nullptr) << "network model needs an event queue";
  FAAS_CHECK(faults_ != nullptr) << "network model needs a fault plan";
  FAAS_CHECK(num_invokers_ > 0) << "network model needs at least one link";
  FAAS_CHECK(config_.max_retransmits >= 0) << "negative retransmit budget";
  FAAS_CHECK(config_.dedup_window > 0) << "dedup window must be positive";
  // Fixed fork order (all uplinks, then all downlinks) so link i's stream is
  // a function of (seed, i) only.
  uplinks_.reserve(static_cast<size_t>(num_invokers_));
  downlinks_.reserve(static_cast<size_t>(num_invokers_));
  for (int i = 0; i < num_invokers_; ++i) {
    uplinks_.push_back({rng.Fork(), TimePoint::Origin(), 0});
  }
  for (int i = 0; i < num_invokers_; ++i) {
    downlinks_.push_back({rng.Fork(), TimePoint::Origin(), 0});
  }
}

NetworkModel::Link& NetworkModel::LinkFor(NetDirection dir, int invoker) {
  FAAS_CHECK(invoker >= 0 && invoker < num_invokers_)
      << "message for unknown invoker " << invoker;
  FAAS_CHECK(dir != NetDirection::kBoth) << "messages travel one direction";
  return dir == NetDirection::kUp ? uplinks_[static_cast<size_t>(invoker)]
                                  : downlinks_[static_cast<size_t>(invoker)];
}

NetworkModel::Transit NetworkModel::Admit(NetDirection dir, int invoker,
                                          NetPriority priority,
                                          NetMessageKind kind) {
  ++counters_.messages_sent;
  ++counters_.sent_by_kind[static_cast<size_t>(kind)];
  const TimePoint now = queue_->now();
  Transit transit;

  // Partition/blackhole: a pure window lookup, no randomness, so a plan
  // without partitions perturbs nothing.
  if (faults_->LinkPartitionedAt(invoker, dir, now)) {
    ++counters_.lost_to_partition;
    if (telemetry_ != nullptr) {
      telemetry_->Instant(SpanName::kNetDrop, 0, now, invoker, /*arg0=*/1);
    }
    return transit;
  }

  Link& link = LinkFor(dir, invoker);

  // Flaky loss: Bernoulli drawn from the link's own stream, and only while a
  // window is active — an empty plan draws nothing here.
  const double loss_p = faults_->NetLossProbabilityAt(invoker, now);
  if (loss_p > 0.0 && link.rng.Bernoulli(loss_p)) {
    ++counters_.lost_to_loss;
    if (telemetry_ != nullptr) {
      telemetry_->Instant(SpanName::kNetDrop, 0, now, invoker, /*arg0=*/0);
    }
    return transit;
  }

  // Bounded queue over in-flight messages.  The priority discipline keeps
  // the last quarter of the queue for control traffic, so responses and ACKs
  // survive a burst that drowns data messages.
  const NetLinkParams& params =
      dir == NetDirection::kUp ? config_.uplink : config_.downlink;
  if (params.queue_capacity > 0) {
    int limit = params.queue_capacity;
    if (params.discipline == NetQueueDiscipline::kPriority &&
        priority == NetPriority::kData) {
      limit = std::max(1, params.queue_capacity -
                              std::max(1, params.queue_capacity / 4));
    }
    if (link.in_flight >= limit) {
      ++counters_.lost_to_queue;
      if (telemetry_ != nullptr) {
        telemetry_->Instant(SpanName::kNetDrop, 0, now, invoker, /*arg0=*/2);
      }
      return transit;
    }
  }

  // Leaky-bucket serialization: the message waits behind the link's backlog,
  // then occupies the serializer for one service interval.
  Duration shaping = Duration::Zero();
  if (params.rate_msgs_per_sec > 0.0) {
    const Duration service =
        Duration::FromSecondsF(1.0 / params.rate_msgs_per_sec);
    const TimePoint start = std::max(now, link.next_free);
    link.next_free = start + service;
    shaping = link.next_free - now;
  }

  // One-way propagation latency, always sampled while the model is on (the
  // null model is `enabled = false`, not a zero-latency plan).
  const auto sample_latency = [&params](Rng& rng) {
    return Duration::Millis(static_cast<int64_t>(
        rng.NextLogNormal(std::log(params.latency_median_ms),
                          params.latency_sigma)));
  };
  Duration latency = sample_latency(link.rng);

  // Duplicate delivery: the copy samples its own latency below, so the pair
  // can arrive in either order.
  const double dup_p = faults_->NetDuplicateProbabilityAt(invoker, now);
  const bool duplicate = dup_p > 0.0 && link.rng.Bernoulli(dup_p);

  // Reordering: hold this message back so later sends can overtake it.
  if (const NetReorderWindow* window = faults_->NetReorderAt(invoker, now);
      window != nullptr && link.rng.Bernoulli(window->probability)) {
    latency += Duration::Millis(static_cast<int64_t>(link.rng.UniformDouble(
        0.0, static_cast<double>(std::max<int64_t>(
                 1, window->extra_delay.millis())))));
    ++counters_.reordered;
  }

  transit.link = &link;
  transit.delay = shaping + latency;
  if (duplicate) {
    ++counters_.duplicates_delivered;
    transit.duplicate = true;
    transit.copy_delay = shaping + sample_latency(link.rng);
  }
  return transit;
}

void NetworkModel::NoteRetransmit(int invoker) {
  ++counters_.rpc_retransmits;
  if (telemetry_ != nullptr) {
    telemetry_->Instant(SpanName::kNetRetransmit, 0, queue_->now(), invoker);
  }
}

void NetworkModel::NoteDuplicateSuppressed(int invoker) {
  ++counters_.rpc_duplicates_suppressed;
  if (telemetry_ != nullptr) {
    telemetry_->Instant(SpanName::kNetDuplicate, 0, queue_->now(), invoker);
  }
}

void NetworkModel::NoteGiveUp(int invoker) {
  ++counters_.rpc_give_ups;
  if (telemetry_ != nullptr) {
    telemetry_->Instant(SpanName::kRpcGiveUp, 0, queue_->now(), invoker);
  }
}

// --- Dedup window ----------------------------------------------------------

DedupWindow::DedupWindow(size_t capacity) : capacity_(capacity) {
  FAAS_CHECK(capacity_ > 0) << "dedup window must be positive";
}

size_t DedupWindow::Home(int64_t id) const {
  // Fibonacci hashing: sequential ids spread over the whole table.
  return static_cast<size_t>(
      (static_cast<uint64_t>(id) * 0x9E3779B97F4A7C15ull) >> shift_);
}

size_t DedupWindow::Probe(int64_t id) const {
  const size_t mask = keys_.size() - 1;
  size_t i = Home(id);
  while (keys_[i] != kEmpty && keys_[i] != id) {
    i = (i + 1) & mask;
  }
  return i;
}

std::optional<bool> DedupWindow::Find(int64_t id) const {
  if (keys_.empty()) {
    return std::nullopt;
  }
  const size_t i = Probe(id);
  if (keys_[i] == kEmpty) {
    return std::nullopt;
  }
  return values_[i] != 0;
}

void DedupWindow::Insert(int64_t id, bool value) {
  FAAS_CHECK(id != kEmpty) << "INT64_MIN is reserved";
  if (2 * (count_ + 1) > keys_.size()) {
    Grow();
  }
  const size_t i = Probe(id);
  if (keys_[i] == kEmpty) {
    keys_[i] = id;
    values_[i] = value ? 1 : 0;
    ++count_;
  }
  order_.push_back(id);
  while (order_.size() > capacity_) {
    Erase(order_.front());
    order_.pop_front();
  }
}

void DedupWindow::Erase(int64_t id) {
  size_t hole = Probe(id);
  if (keys_[hole] == kEmpty) {
    return;  // An id inserted twice was already erased at its first copy.
  }
  --count_;
  // Backward-shift deletion: pull later cells of the probe run into the
  // hole unless their home lies cyclically in (hole, cell].
  const size_t mask = keys_.size() - 1;
  for (size_t j = (hole + 1) & mask; keys_[j] != kEmpty; j = (j + 1) & mask) {
    const size_t home = Home(keys_[j]);
    const bool stays = hole <= j ? (hole < home && home <= j)
                                 : (hole < home || home <= j);
    if (!stays) {
      keys_[hole] = keys_[j];
      values_[hole] = values_[j];
      hole = j;
    }
  }
  keys_[hole] = kEmpty;
}

void DedupWindow::Grow() {
  std::vector<int64_t> old_keys(keys_.empty() ? 16 : 2 * keys_.size(),
                                kEmpty);
  std::vector<uint8_t> old_values(old_keys.size(), 0);
  old_keys.swap(keys_);
  old_values.swap(values_);
  shift_ = 64 - std::countr_zero(keys_.size());
  for (size_t k = 0; k < old_keys.size(); ++k) {
    if (old_keys[k] != kEmpty) {
      const size_t i = Probe(old_keys[k]);
      keys_[i] = old_keys[k];
      values_[i] = old_values[k];
    }
  }
}

// --- RPC plane -------------------------------------------------------------

RpcPlane::RpcPlane(NetworkModel* network)
    : net_(network),
      queue_(network->queue()),
      config_(network->config()),
      timeout_lane_(queue_->AddLane(config_.rpc_timeout)) {
  const auto window = static_cast<size_t>(config_.dedup_window);
  reply_caches_.assign(static_cast<size_t>(network->num_invokers()),
                       DedupWindow(window));
  seen_notifies_.assign(static_cast<size_t>(network->num_invokers()),
                        DedupWindow(window));
}

void RpcPlane::Call(Invoker* target, const ActivationMessage& message) {
  CallState state;
  state.target = target;
  state.message = message;
  state.retransmits_left = config_.max_retransmits;
  const int64_t call_id = calls_.Add(std::move(state));
  CallState& call = *calls_.Find(call_id);
  SendRequest(call_id, call);
  ArmCallTimer(call_id, call);
}

void RpcPlane::SendRequest(int64_t call_id, const CallState& call) {
  // The request carries its own copy of the message: a request that
  // arrives after the caller gave up still executes.
  const int invoker = call.target->id();
  net_->Send(
      NetDirection::kUp, invoker, NetPriority::kData,
      [this, call_id, invoker, target = call.target,
       message = call.message]() {
        DedupWindow& cache = reply_caches_[static_cast<size_t>(invoker)];
        if (const std::optional<bool> cached = cache.Find(call_id)) {
          // Retransmitted or duplicated request: answer from the reply cache
          // without re-running the handler (at-most-once execution).
          net_->NoteDuplicateSuppressed(invoker);
          SendResponse(invoker, call_id, *cached);
          return;
        }
        const bool accepted = target->HandleActivation(message);
        cache.Insert(call_id, accepted);
        SendResponse(invoker, call_id, accepted);
      },
      NetMessageKind::kProbeRequest);
}

void RpcPlane::SendResponse(int invoker, int64_t call_id, bool accepted) {
  net_->Send(
      NetDirection::kDown, invoker, NetPriority::kControl,
      [this, invoker, call_id, accepted]() {
        CallState* call = calls_.Find(call_id);
        if (call == nullptr) {
          // Response for a resolved call (duplicate, or the caller already
          // gave up): suppressed.
          net_->NoteDuplicateSuppressed(invoker);
          return;
        }
        call->timer.Cancel();
        const int64_t activation_id = call->message.activation_id;
        calls_.Erase(call_id);
        client_->OnProbeResponse(activation_id, invoker, accepted);
      },
      NetMessageKind::kProbeResponse);
}

void RpcPlane::ArmCallTimer(int64_t call_id, CallState& call) {
  call.timer.Cancel();
  call.timer = queue_->ScheduleOnLane(
      timeout_lane_, [this, call_id]() { OnCallTimeout(call_id); });
}

void RpcPlane::OnCallTimeout(int64_t call_id) {
  CallState* call = calls_.Find(call_id);
  if (call == nullptr) {
    return;  // Resolved just before the timer fired.
  }
  const int invoker = call->target->id();
  if (call->retransmits_left > 0) {
    --call->retransmits_left;
    net_->NoteRetransmit(invoker);
    SendRequest(call_id, *call);
    ArmCallTimer(call_id, *call);
    return;
  }
  net_->NoteGiveUp(invoker);
  const int64_t activation_id = call->message.activation_id;
  calls_.Erase(call_id);
  client_->OnProbeGiveUp(activation_id, invoker);
}

void RpcPlane::Notify(const CompletionMessage& message) {
  StartNotify(message.invoker_id, message);
}

void RpcPlane::Notify(const FailureMessage& message) {
  StartNotify(message.invoker_id, message);
}

void RpcPlane::StartNotify(int invoker, Notice notice) {
  NotifyState state;
  state.invoker = invoker;
  state.notice = std::move(notice);
  state.retransmits_left = config_.max_retransmits;
  const int64_t notify_id = notifies_.Add(std::move(state));
  NotifyState& notify = *notifies_.Find(notify_id);
  SendNotify(notify_id, notify);
  ArmNotifyTimer(notify_id, notify);
}

void RpcPlane::DeliverNotice(const Notice& notice) {
  if (const auto* completion = std::get_if<CompletionMessage>(&notice)) {
    client_->OnCompletion(*completion);
  } else {
    client_->OnFailure(std::get<FailureMessage>(notice));
  }
}

void RpcPlane::SendNotify(int64_t notify_id, const NotifyState& notify) {
  const int invoker = notify.invoker;
  net_->Send(
      NetDirection::kDown, invoker, NetPriority::kData,
      [this, notify_id, invoker, notice = notify.notice]() {
        DedupWindow& seen = seen_notifies_[static_cast<size_t>(invoker)];
        if (seen.Contains(notify_id)) {
          // Duplicate (retransmit or fault-injected copy): deliver nothing,
          // but re-ACK — the earlier ACK may be the message that was lost.
          net_->NoteDuplicateSuppressed(invoker);
        } else {
          seen.Insert(notify_id, true);
          DeliverNotice(notice);
        }
        // ACK travels the uplink as control traffic.
        net_->Send(
            NetDirection::kUp, invoker, NetPriority::kControl,
            [this, notify_id]() {
              NotifyState* acked = notifies_.Find(notify_id);
              if (acked == nullptr) {
                return;  // Duplicate ACK.
              }
              acked->timer.Cancel();
              notifies_.Erase(notify_id);
            },
            NetMessageKind::kNotifyAck);
      },
      NetMessageKind::kNotify);
}

void RpcPlane::ArmNotifyTimer(int64_t notify_id, NotifyState& notify) {
  notify.timer.Cancel();
  notify.timer = queue_->ScheduleOnLane(
      timeout_lane_, [this, notify_id]() { OnNotifyTimeout(notify_id); });
}

void RpcPlane::OnNotifyTimeout(int64_t notify_id) {
  NotifyState* notify = notifies_.Find(notify_id);
  if (notify == nullptr) {
    return;  // ACKed just before the timer fired.
  }
  if (notify->retransmits_left > 0) {
    --notify->retransmits_left;
    net_->NoteRetransmit(notify->invoker);
    SendNotify(notify_id, *notify);
    ArmNotifyTimer(notify_id, *notify);
    return;
  }
  // Budget spent: the notification is lost.  The controller's activation
  // timeout is the backstop that eventually fails the silent activation.
  net_->NoteGiveUp(notify->invoker);
  notifies_.Erase(notify_id);
}

}  // namespace faas
