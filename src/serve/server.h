// Real-time serving front-end: epoll loops over the admission bridge.
//
// This is the wall-clock counterpart of the trace replayer: instead of an
// EventQueue delivering invocations in virtual time, N event loops (one per
// core by default) each own a SO_REUSEPORT listening socket on the same
// port, an epoll instance, a TimerWheel, and an AdmissionBridge — the
// kernel's REUSEPORT hash spreads connections across loops, and everything
// a loop touches (connections, timers, admission state, ledgers, latency
// recorder) is loop-local, so the data plane takes no locks.  Loops may be
// pinned to CPUs through a NUMA-interleaved map
// (CpuTopology::InterleavedCpus), keeping a connection's packets, decoder
// stash, and admission state on one core.
//
// Reads are batched: one read() syscall pulls up to 256 KB, the
// FrameDecoder walks it in place, and each request frame is admitted
// inline.  Replies accumulate per connection and flush once per loop
// iteration, so a burst of B requests costs O(1) syscalls each way instead
// of O(B).  The wheel is advanced once per iteration; when idle the loop
// sleeps in epoll until the next timer deadline (epoll_pwait2 when the
// kernel has it, millisecond epoll_wait otherwise).
//
// Shutdown contract (Stop(), also used by tools/serve's SIGINT handler):
// every loop stops accepting and reading, sheds its queued requests as
// kShedShutdown, lets in-flight simulated executions complete, flushes
// outstanding reply bytes, then closes.  Stop() returns after every loop
// thread joined, so callers can scrape final stats race-free.

#ifndef SRC_SERVE_SERVER_H_
#define SRC_SERVE_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/serve/bridge.h"
#include "src/telemetry/latency_recorder.h"

namespace faas {

struct ServeConfig {
  std::string host = "127.0.0.1";
  // 0 binds an ephemeral port; the chosen port is available from port().
  uint16_t port = 0;
  // Event loops (and listening sockets); 0 = one per online CPU.
  int num_loops = 0;
  // Pin loop i to the i-th NUMA-interleaved CPU
  // (CpuTopology::InterleavedCpus).
  bool pin_loops = false;
  int listen_backlog = 1024;
  size_t read_buffer_bytes = 256 * 1024;
  // Wall-clock timer wheel granularity/rotation (see timer_wheel.h).
  int64_t wheel_tick_ns = 64 * 1024;
  size_t wheel_slots = 4096;
  // Upper bound on the graceful-drain phase of Stop().
  int64_t drain_timeout_ms = 2'000;
  // The admission path proper (shared by every loop; state is per-loop).
  AdmissionBridgeConfig bridge;
};

// Merged view over every loop's tallies.  served/shed accounting comes from
// the bridges' OverloadLedger + BridgeStats so socket-driven totals are
// directly comparable with simulated replays.
struct ServeStats {
  int64_t connections_accepted = 0;
  int64_t connections_closed = 0;
  int64_t protocol_errors = 0;
  int64_t frames_in = 0;
  int64_t replies_out = 0;
  int64_t bytes_in = 0;
  int64_t bytes_out = 0;
  BridgeStats bridge;
  OverloadLedger ledger;
  // Merged cost-accounting ledgers (lazy idle settlement; see
  // AdmissionBridge::resources for the snapshot caveat).
  ResourceLedger resources;
  // Self-healing book: watchdog restarts, MTTR, dedupe saves, degradation
  // dwell (all-zero unless the chaos/watchdog/degrade/dedupe knobs are on).
  RecoveryLedger recovery;
  LatencyRecorder latency;  // Server-side latency of served requests.

  ServeStats& operator+=(const ServeStats& other);
};

class ServeServer {
 public:
  explicit ServeServer(ServeConfig config);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  // Binds every loop's listening socket and launches the loop threads.
  // False (with *error set) when sockets are unavailable — callers such as
  // the loopback test use this to skip cleanly in socketless sandboxes.
  bool Start(std::string* error);

  // Graceful shutdown (idempotent): drain, flush, join.  See header.
  void Stop();

  bool running() const { return running_; }
  uint16_t port() const { return port_; }
  int num_loops() const;

  // Merged stats; callable while serving (each loop is paused for the copy
  // at an iteration boundary, never mid-frame).
  ServeStats Snapshot() const;

 private:
  class EventLoop;

  ServeConfig config_;
  std::vector<std::unique_ptr<EventLoop>> loops_;
  uint16_t port_ = 0;
  bool running_ = false;
};

}  // namespace faas

#endif  // SRC_SERVE_SERVER_H_
