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
//   - Call(): at-most-once request/response.  Requests carry a sequence
//     number; the invoker keeps a bounded reply cache, so a retransmitted or
//     duplicated request is answered from the cache without re-executing the
//     handler.  The caller retransmits on a per-message timeout up to a
//     budget, then reports give-up (the partition-detection signal the
//     controller feeds into its breakers and failover).
//   - Notify(): reliable one-way invoker -> controller notification
//     (completions/failures) with ACK + retransmit and a controller-side
//     seen-window, so a duplicated completion can never double-count.
//
// Disabled-by-default contract: NetworkConfig{}.enabled is false, the
// cluster constructs no NetworkModel, forks no RNG, schedules no events and
// registers no metrics, so network-off replays stay bit-identical to the
// pre-network engine.  With the model enabled but the fault plan empty, the
// fault paths draw no random numbers (only the latency distribution does).

#ifndef SRC_CLUSTER_NETWORK_H_
#define SRC_CLUSTER_NETWORK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/cluster/event_queue.h"
#include "src/common/rng.h"
#include "src/faults/fault_plan.h"
#include "src/telemetry/telemetry.h"

namespace faas {

// Message class for the priority queue discipline.  Control traffic (RPC
// responses, ACKs) may use the full queue; data traffic (activation
// requests, pre-warms, completion payloads) is tail-dropped earlier.
enum class NetPriority { kControl, kData };

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
};

// The unreliable datagram layer: schedules (or drops) delivery closures.
class NetworkModel {
 public:
  // `faults` supplies the network fault windows (may be empty; must outlive
  // the model).  `rng` seeds the per-link streams: each of the 2N link
  // directions forks its own stream at construction, so an empty fault plan
  // draws only latency samples and the draw sequence of link i is
  // independent of traffic on link j.  `instruments` (optional, non-owning)
  // receives drop/duplicate counters and spans.
  NetworkModel(EventQueue* queue, const NetworkConfig& config,
               const FaultPlan* faults, int num_invokers, Rng rng,
               const ClusterInstruments* instruments = nullptr);

  // Sends one message on `dir`-direction of invoker `invoker`'s link; when
  // the message survives the gauntlet (partition -> loss -> bounded queue ->
  // rate shaping), `deliver` runs at the arrival time.  Dropped messages
  // are dropped silently — reliability is the RPC plane's job.
  void Send(NetDirection dir, int invoker, NetPriority priority,
            std::function<void()> deliver);

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

  Link& LinkFor(NetDirection dir, int invoker);
  void RecordDrop(int invoker, int64_t cause);

  EventQueue* queue_;
  NetworkConfig config_;
  const FaultPlan* faults_;
  int num_invokers_;
  const ClusterInstruments* instruments_;
  std::vector<Link> uplinks_;
  std::vector<Link> downlinks_;
  NetCounters counters_;
};

// At-most-once RPC + reliable notify on top of the datagram layer.
class RpcPlane {
 public:
  explicit RpcPlane(NetworkModel* network);

  // Controller -> invoker request/response.  `handler` runs invoker-side at
  // request delivery and returns whether the invoker accepted the work; the
  // response ships the bool back.  Exactly one of `on_response` /
  // `on_give_up` eventually runs: on_response(accepted) when a response
  // arrives, on_give_up() when the retransmit budget is spent without one.
  // The handler runs at most once per call — retransmitted or duplicated
  // requests are answered from the invoker's reply cache.
  void Call(int invoker, std::function<bool()> handler,
            std::function<void(bool)> on_response,
            std::function<void()> on_give_up);

  // Invoker -> controller reliable one-way notification (completions,
  // failures).  `deliver` runs controller-side at most once; the plane
  // retransmits until ACKed or the budget is spent (a notify that gives up
  // is dropped — the controller's activation timeout is the backstop).
  void Notify(int invoker, std::function<void()> deliver);

  // The datagram layer underneath (for raw fire-and-forget sends).
  NetworkModel* network() const { return net_; }

 private:
  struct CallState {
    int invoker = 0;
    std::function<bool()> handler;
    std::function<void(bool)> on_response;
    std::function<void()> on_give_up;
    int retransmits_left = 0;
    EventQueue::Handle timer;
  };
  struct NotifyState {
    int invoker = 0;
    std::function<void()> deliver;
    int retransmits_left = 0;
    EventQueue::Handle timer;
  };
  // Bounded FIFO id window (reply cache keys / seen notify ids).
  struct DedupWindow {
    std::unordered_map<int64_t, bool> entries;  // id -> cached reply.
    std::deque<int64_t> order;

    bool Contains(int64_t id) const { return entries.count(id) > 0; }
    void Insert(int64_t id, bool value, size_t capacity);
  };

  void SendRequest(int64_t call_id);
  void SendResponse(int invoker, int64_t call_id, bool accepted);
  void ArmCallTimer(int64_t call_id);
  void OnCallTimeout(int64_t call_id);
  void SendNotify(int64_t notify_id);
  void ArmNotifyTimer(int64_t notify_id);
  void OnNotifyTimeout(int64_t notify_id);

  NetworkModel* net_;
  EventQueue* queue_;
  NetworkConfig config_;
  int64_t next_call_id_ = 1;
  int64_t next_notify_id_ = 1;
  std::unordered_map<int64_t, CallState> calls_;
  std::unordered_map<int64_t, NotifyState> notifies_;
  // Per-invoker reply caches (invoker side of Call).
  std::vector<DedupWindow> reply_caches_;
  // Per-invoker seen-notify windows (controller side of Notify).
  std::vector<DedupWindow> seen_notifies_;
};

}  // namespace faas

#endif  // SRC_CLUSTER_NETWORK_H_
