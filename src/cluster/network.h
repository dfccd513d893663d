// Network model + idempotent RPC plane for the mini-OpenWhisk cluster.
//
// With the model off, the controller reaches its invokers over a direct
// in-process channel: one sampled "dispatch hop" per attempt, after which
// each placement probe is a free, lossless function call.  This header makes
// the channel a first-class, faulty datacenter network in the style of the
// SIRD/Homa simulators.  The controller's placement scan walks the same
// candidates on either channel; only the hop and the probe change.  Every
// controller<->invoker pair owns an uplink (controller -> invoker) and a
// downlink (invoker -> controller), each with
//
//   - a seeded per-link latency distribution (log-normal, forked RNG stream
//     per link so link i's draws do not depend on traffic to link j),
//   - a bounded in-flight queue with tail-drop or priority disciplines
//     (priority reserves the last quarter of the queue for control traffic:
//     responses and ACKs survive bursts that drown data messages),
//   - optional leaky-bucket rate limiting (messages serialize through the
//     link at `rate_msgs_per_sec`, accruing queueing delay),
//
// and every message hop scheduled through the cluster's event queue.  The
// chaos engine's network fault classes (src/faults/fault_plan.h) drop,
// duplicate, and delay messages per link: partitions/blackholes with heal
// times, flaky-loss windows, duplicate delivery, and reordering.
//
// Because messages can now vanish or arrive twice, the RPC plane on top is
// hardened the way real RPC stacks are:
//
//   - Call(): at-most-once request/response.  A request carries its
//     ActivationMessage by value and a sequence number; the invoker keeps a
//     bounded reply cache, so a retransmitted or duplicated request is
//     answered from the cache without re-running HandleActivation.  The
//     caller retransmits on a per-message timeout up to a budget, then
//     reports give-up (the partition-detection signal the controller feeds
//     into its breakers and failover).
//   - Notify(): reliable one-way invoker -> controller notification
//     (completions/failures) with ACK + retransmit and a controller-side
//     seen-window, so a duplicated completion can never double-count.
//
// The plane is allocation-free once warm: deliveries are inline closures in
// the event queue's slab, call and notify state live in rings indexed by
// their sequential ids, timeouts ride one fixed-delay lane, and the dedup
// windows are a ring plus an open-addressing index.
//
// Disabled-by-default contract: NetworkConfig{}.enabled is false, the
// cluster constructs no NetworkModel, forks no RNG, schedules no events and
// registers no metrics, so network-off replays stay bit-identical to the
// pre-network engine.  With the model enabled but the fault plan empty, the
// fault paths draw no random numbers (only the latency distribution does).

#ifndef SRC_CLUSTER_NETWORK_H_
#define SRC_CLUSTER_NETWORK_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "src/cluster/event_queue.h"
#include "src/cluster/messages.h"
#include "src/common/ring.h"
#include "src/common/rng.h"
#include "src/faults/fault_plan.h"
#include "src/telemetry/telemetry.h"

namespace faas {

class Invoker;

// Message class for the priority queue discipline.  Control traffic (RPC
// responses, ACKs) may use the full queue; data traffic (activation
// requests, pre-warms, completion payloads) is tail-dropped earlier.
enum class NetPriority { kControl, kData };

// What a message is, for the per-kind send counts.
enum class NetMessageKind {
  kProbeRequest,   // Call() request (placement probe), retransmits included.
  kProbeResponse,  // Call() response, cached replies included.
  kNotify,         // Notify() payload (completion/failure), retransmits too.
  kNotifyAck,      // Notify() ACK.
  kRaw,            // Fire-and-forget datagram (pre-warms).
};
inline constexpr size_t kNumNetMessageKinds = 5;
const char* NetMessageKindName(NetMessageKind kind);

// How a full link queue picks victims.
enum class NetQueueDiscipline {
  kTailDrop,  // Everything drops once the queue is at capacity.
  kPriority,  // Data drops at 3/4 capacity; control drops at capacity.
};

// One direction of one controller<->invoker link.
struct NetLinkParams {
  // Log-normal one-way latency (median ms, log-space sigma).
  double latency_median_ms = 0.5;
  double latency_sigma = 0.2;
  // Bounded in-flight queue: messages sent but not yet delivered.  0 =
  // unbounded (no queue drops).
  int queue_capacity = 0;
  NetQueueDiscipline discipline = NetQueueDiscipline::kTailDrop;
  // Leaky-bucket serialization rate; messages accrue queueing delay behind
  // earlier ones.  0 = no shaping (latency only).
  double rate_msgs_per_sec = 0.0;
};

struct NetworkConfig {
  // Master switch.  False (the default) keeps the cluster on the direct
  // in-process channel: byte-identical to the pre-network engine.
  bool enabled = false;
  NetLinkParams uplink;    // Controller -> invoker.
  NetLinkParams downlink;  // Invoker -> controller.
  // RPC plane: per-message timeout before a retransmit, and how many
  // retransmits a call/notify may burn before giving up.
  Duration rpc_timeout = Duration::Millis(500);
  int max_retransmits = 3;
  // Bounded per-invoker dedup state: reply-cache entries on the invoker
  // side, seen-ids on the controller side (FIFO eviction).
  int dedup_window = 4096;
};

// Everything the transport observed.  Folded into the replay's FaultLedger
// (cluster.cc) and comparable there, so determinism tests cover it.
struct NetCounters {
  int64_t messages_sent = 0;        // Send() calls (copies not included).
  int64_t delivered = 0;            // Deliveries that ran (copies included).
  int64_t lost_to_loss = 0;         // Flaky-window drops.
  int64_t lost_to_partition = 0;    // Partition/blackhole drops.
  int64_t lost_to_queue = 0;        // Bounded-queue tail drops.
  int64_t duplicates_delivered = 0; // Extra copies the fault plan injected.
  int64_t reordered = 0;            // Messages held back by a reorder window.
  // RPC plane.
  int64_t rpc_retransmits = 0;          // Timeout-driven resends.
  int64_t rpc_duplicates_suppressed = 0;// Dedup hits on either end.
  int64_t rpc_give_ups = 0;             // Calls/notifies that spent the budget.
  // Send() calls by NetMessageKind; sums to messages_sent.  Explains the
  // traffic, and stays out of the FaultLedger (ClusterResult carries it).
  std::array<int64_t, kNumNetMessageKinds> sent_by_kind{};
};

// The unreliable datagram layer: schedules (or drops) delivery closures.
class NetworkModel {
 public:
  // `faults` supplies the network fault windows (may be empty; must outlive
  // the model).  `rng` seeds the per-link streams: each of the 2N link
  // directions forks its own stream at construction, so an empty fault plan
  // draws only latency samples and the draw sequence of link i is
  // independent of traffic on link j.  `telemetry` (optional, non-owning)
  // receives drop, retransmit, duplicate and give-up instants on the
  // controller's thread lane; the counts themselves live in counters(),
  // where the cluster's sampler reads them.
  NetworkModel(EventQueue* queue, const NetworkConfig& config,
               const FaultPlan* faults, int num_invokers, Rng rng,
               TelemetryWriter* telemetry = nullptr);

  // Sends one message on `dir`-direction of invoker `invoker`'s link; when
  // the message survives the gauntlet (partition -> loss -> bounded queue ->
  // rate shaping), `deliver` runs at the arrival time.  Dropped messages
  // are dropped silently — reliability is the RPC plane's job.  `deliver`
  // is stored inline in the event queue, so it must fit the queue's action
  // buffer with 16 bytes to spare, and be copyable in case the fault plan
  // duplicates the message.
  template <typename F>
  void Send(NetDirection dir, int invoker, NetPriority priority, F&& deliver,
            NetMessageKind kind = NetMessageKind::kRaw) {
    const Transit transit = Admit(dir, invoker, priority, kind);
    if (transit.link == nullptr) {
      return;
    }
    if (transit.duplicate) {
      Deliver(transit.link, transit.copy_delay, deliver);
    }
    Deliver(transit.link, transit.delay, std::forward<F>(deliver));
  }

  // RPC-plane accounting hooks (counters + gated telemetry): timeout-driven
  // resend, dedup hit, and spent-budget give-up on invoker `invoker`'s link.
  void NoteRetransmit(int invoker);
  void NoteDuplicateSuppressed(int invoker);
  void NoteGiveUp(int invoker);

  const NetCounters& counters() const { return counters_; }
  NetCounters& counters() { return counters_; }
  EventQueue* queue() const { return queue_; }
  const NetworkConfig& config() const { return config_; }
  int num_invokers() const { return num_invokers_; }

 private:
  struct Link {
    Rng rng;
    TimePoint next_free;  // Leaky bucket: when the serializer frees up.
    int in_flight = 0;    // Sent but not yet delivered (the bounded queue).
  };
  // The fate of one sent message: dropped (link == nullptr), or delivered
  // after `delay`, plus a fault-injected copy after `copy_delay`.
  struct Transit {
    Link* link = nullptr;
    Duration delay;
    bool duplicate = false;
    Duration copy_delay;
  };

  Link& LinkFor(NetDirection dir, int invoker);
  // Counts the send, runs the drop gauntlet and draws the latencies.
  Transit Admit(NetDirection dir, int invoker, NetPriority priority,
                NetMessageKind kind);
  template <typename F>
  void Deliver(Link* link, Duration delay, F&& deliver) {
    ++link->in_flight;
    queue_->ScheduleAfter(
        delay, [this, link, deliver = std::forward<F>(deliver)]() mutable {
          --link->in_flight;
          ++counters_.delivered;
          deliver();
        });
  }

  EventQueue* queue_;
  NetworkConfig config_;
  const FaultPlan* faults_;
  int num_invokers_;
  TelemetryWriter* telemetry_;
  std::vector<Link> uplinks_;
  std::vector<Link> downlinks_;
  NetCounters counters_;
};

// Bounded FIFO id window (the reply cache and the seen-notify window): it
// remembers the last `capacity` inserted ids with one cached bool each.
// A ring keeps insertion order for exact FIFO eviction; an open-addressing
// index (linear probing, backward-shift deletion, load <= 1/2) answers
// lookups.  Both grow on demand up to the capacity, then stop allocating.
// INT64_MIN is reserved as the index's empty marker and cannot be an id.
class DedupWindow {
 public:
  explicit DedupWindow(size_t capacity);

  // The cached value of `id`, or nullopt when the window does not hold it.
  std::optional<bool> Find(int64_t id) const;
  bool Contains(int64_t id) const { return Find(id).has_value(); }
  // Appends `id` (keeping the first value if it is already held), then
  // evicts the oldest insertions beyond the capacity.
  void Insert(int64_t id, bool value);
  size_t size() const { return count_; }

 private:
  static constexpr int64_t kEmpty = INT64_MIN;
  size_t Home(int64_t id) const;
  // The cell holding `id`, or the empty cell ending its probe run.
  size_t Probe(int64_t id) const;
  void Erase(int64_t id);
  void Grow();

  size_t capacity_;
  Ring<int64_t> order_;         // Insertions, oldest first.
  std::vector<int64_t> keys_;   // Power-of-two size; kEmpty = free cell.
  std::vector<uint8_t> values_; // Parallel to keys_.
  int shift_ = 64;              // 64 - log2(keys_.size()).
  size_t count_ = 0;            // Distinct ids held.
};

// The controller end of the RPC plane: call outcomes and notifications are
// delivered here.
class RpcClient {
 public:
  // The invoker answered the call for `activation_id`.
  virtual void OnProbeResponse(int64_t activation_id, int invoker,
                               bool accepted) = 0;
  // The call's retransmit budget ran out without a response.
  virtual void OnProbeGiveUp(int64_t activation_id, int invoker) = 0;
  virtual void OnCompletion(const CompletionMessage& message) = 0;
  virtual void OnFailure(const FailureMessage& message) = 0;

 protected:
  ~RpcClient() = default;
};

// At-most-once RPC + reliable notify on top of the datagram layer.
class RpcPlane {
 public:
  explicit RpcPlane(NetworkModel* network);

  // Where responses, give-ups and notifications go; set before traffic.
  void set_client(RpcClient* client) { client_ = client; }

  // Controller -> invoker placement probe: `target->HandleActivation`
  // runs invoker-side at request delivery, at most once per call —
  // retransmitted or duplicated requests are answered from the invoker's
  // reply cache.  Exactly one of OnProbeResponse / OnProbeGiveUp reaches
  // the client for each call.  A request that arrives after the caller
  // gave up still runs (and is answered from the cache on any later
  // duplicate): the work it starts is a zombie the caller's duplicate-
  // response suppression discards.
  void Call(Invoker* target, const ActivationMessage& message);

  // Invoker -> controller reliable one-way notification.  The client's
  // OnCompletion / OnFailure runs at most once; the plane retransmits until
  // ACKed or the budget is spent (a notify that gives up is dropped — the
  // controller's activation timeout is the backstop).
  void Notify(const CompletionMessage& message);
  void Notify(const FailureMessage& message);

  // The datagram layer underneath (for raw fire-and-forget sends).
  NetworkModel* network() const { return net_; }

 private:
  using Notice = std::variant<CompletionMessage, FailureMessage>;
  struct CallState {
    Invoker* target = nullptr;
    ActivationMessage message;
    int retransmits_left = 0;
    EventQueue::Handle timer;
  };
  struct NotifyState {
    int invoker = 0;
    Notice notice;
    int retransmits_left = 0;
    EventQueue::Handle timer;
  };
  // Live states keyed by sequential id (ids are handed out 1, 2, 3, ...):
  // a ring from the oldest live id to the newest.  Ids resolve roughly in
  // order and within the retransmit budget, so the ring stays short.
  template <typename State>
  class IdTable {
   public:
    int64_t Add(State state) {
      states_.push_back({std::move(state), true});
      return first_id_ + static_cast<int64_t>(states_.size()) - 1;
    }
    State* Find(int64_t id) {
      if (id < first_id_ ||
          id >= first_id_ + static_cast<int64_t>(states_.size())) {
        return nullptr;
      }
      Entry& entry = states_[static_cast<size_t>(id - first_id_)];
      return entry.live ? &entry.state : nullptr;
    }
    void Erase(int64_t id) {
      states_[static_cast<size_t>(id - first_id_)].live = false;
      while (!states_.empty() && !states_.front().live) {
        states_.pop_front();
        ++first_id_;
      }
    }

   private:
    struct Entry {
      State state;
      bool live = false;
    };
    Ring<Entry> states_;
    int64_t first_id_ = 1;
  };

  void StartNotify(int invoker, Notice notice);
  void SendRequest(int64_t call_id, const CallState& call);
  void SendResponse(int invoker, int64_t call_id, bool accepted);
  void ArmCallTimer(int64_t call_id, CallState& call);
  void OnCallTimeout(int64_t call_id);
  void SendNotify(int64_t notify_id, const NotifyState& notify);
  void ArmNotifyTimer(int64_t notify_id, NotifyState& notify);
  void OnNotifyTimeout(int64_t notify_id);
  void DeliverNotice(const Notice& notice);

  NetworkModel* net_;
  EventQueue* queue_;
  NetworkConfig config_;
  RpcClient* client_ = nullptr;
  // The one fixed-delay lane all call and notify timers ride.
  int timeout_lane_;
  IdTable<CallState> calls_;
  IdTable<NotifyState> notifies_;
  // Per-invoker reply caches (invoker side of Call).
  std::vector<DedupWindow> reply_caches_;
  // Per-invoker seen-notify windows (controller side of Notify).
  std::vector<DedupWindow> seen_notifies_;
};

}  // namespace faas

#endif  // SRC_CLUSTER_NETWORK_H_
