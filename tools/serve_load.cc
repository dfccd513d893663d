// serve_load: drive a running serve process from loopback.
//
// Wraps src/serve/loadgen.h in a CLI.  Two load shapes:
//
//   open loop    seeded Poisson arrivals at --rps (0 = blast mode: saturate
//                the socket with pre-encoded frame blocks); never blocks on
//                replies, so server queueing shows up as latency, not as
//                reduced offered load.
//   closed loop  --closed: N connections, one request in flight each,
//                --think-us between a reply and the next request.
//
// Requests are stamped with the sender's monotonic clock, so the reported
// p50/p90/p99/p99.9 are measured client-observed e2e latencies out of a
// log-bucketed wall-clock histogram, not estimates.  SIGINT/SIGTERM end the
// send window early and still drain outstanding replies before reporting.
//
//   serve_load --port 7433 --connections 4 --rps 50000 --duration-ms 10000
//   serve_load --port 7433 --closed --connections 32 --think-us 500
//
// Flags:
//   --host H=127.0.0.1 --port P=7433
//   --connections N=1        TCP connections
//   --closed                 closed loop (default open)
//   --rps R=0                open loop target rate (0 = blast)
//   --think-us X=0           closed-loop think time
//   --duration-ms X=1000     send window
//   --drain-ms X=500         wait for stragglers after the window
//   --functions N=64         function-id space
//   --payload B=0            payload bytes per request
//   --deadline-us X=0        per-request deadline on the wire
//   --seed S=42
//   --latency-out FILE       latency summary + bucket CSV
// retry kit (client-side resilience; incompatible with blast mode):
//   --retry                  enable retries + reconnects + dedupe-safe ids
//   --retry-timeout-us X=100000    per-attempt client timeout
//   --retry-backoff-us X=2000      exponential backoff base
//   --retry-cap-us X=100000        backoff cap
//   --retry-jitter F=0.5           backoff jitter fraction
//   --retry-max N=4                total attempts per request id

#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>

#include "src/serve/loadgen.h"
#include "src/telemetry/export.h"
#include "tools/flags.h"

namespace {

using namespace faas;

std::atomic<bool> g_stop{false};

void OnSignal(int /*signum*/) {
  g_stop.store(true, std::memory_order_relaxed);
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv) || flags.Has("help")) {
    std::fprintf(
        stderr,
        "usage: serve_load [--host H=127.0.0.1] [--port P=7433]\n"
        "                  [--connections N=1] [--closed] [--rps R=0]\n"
        "                  [--think-us X=0] [--duration-ms X=1000]\n"
        "                  [--drain-ms X=500] [--functions N=64]\n"
        "                  [--payload B=0] [--deadline-us X=0] [--seed S=42]\n"
        "                  [--retry] [--retry-timeout-us X=100000]\n"
        "                  [--retry-backoff-us X=2000] "
        "[--retry-cap-us X=100000]\n"
        "                  [--retry-jitter F=0.5] [--retry-max N=4]\n"
        "                  [--latency-out FILE]\n");
    return flags.Has("help") ? 0 : 2;
  }

  LoadGenConfig config;
  config.host = flags.GetString("host", "127.0.0.1");
  config.port = static_cast<uint16_t>(flags.GetInt("port", 7433));
  config.mode =
      flags.GetBool("closed", false) ? LoadMode::kClosed : LoadMode::kOpen;
  config.connections = static_cast<int>(flags.GetInt("connections", 1));
  config.target_rps = flags.GetDouble("rps", 0.0);
  config.think_time_us = flags.GetInt("think-us", 0);
  config.duration_ms = flags.GetInt("duration-ms", 1'000);
  config.drain_ms = flags.GetInt("drain-ms", 500);
  config.num_functions =
      static_cast<uint32_t>(flags.GetInt("functions", 64));
  config.payload_bytes = static_cast<uint32_t>(flags.GetInt("payload", 0));
  config.deadline_us = static_cast<uint32_t>(flags.GetInt("deadline-us", 0));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  config.stop = &g_stop;
  if (flags.GetBool("retry", false) || flags.Has("retry-max") ||
      flags.Has("retry-timeout-us")) {
    config.retry.enabled = true;
    config.retry.timeout_us = flags.GetInt("retry-timeout-us", 100'000);
    config.retry.backoff_base_us = flags.GetInt("retry-backoff-us", 2'000);
    config.retry.backoff_cap_us = flags.GetInt("retry-cap-us", 100'000);
    config.retry.jitter = flags.GetDouble("retry-jitter", 0.5);
    config.retry.max_attempts = static_cast<int>(flags.GetInt("retry-max", 4));
  }
  const std::string latency_out = flags.GetString("latency-out", "");
  if (!flags.CheckAllRead()) {
    return 2;
  }
  std::signal(SIGINT, &OnSignal);
  std::signal(SIGTERM, &OnSignal);
  std::signal(SIGPIPE, SIG_IGN);  // Reset-injected servers EPIPE mid-write.

  const bool open = config.mode == LoadMode::kOpen;
  std::printf("serve_load: %s loop, %d conn(s), %s, window %lldms\n",
              open ? "open" : "closed", config.connections,
              open ? (config.target_rps > 0.0
                          ? (std::to_string(
                                 static_cast<long long>(config.target_rps)) +
                             " rps")
                                .c_str()
                          : "blast")
                   : ("think " + std::to_string(config.think_time_us) + "us")
                         .c_str(),
              static_cast<long long>(config.duration_ms));
  std::fflush(stdout);

  LoadGenerator generator(config);
  LoadGenResult result;
  std::string error;
  if (!generator.Run(&result, &error)) {
    std::fprintf(stderr, "serve_load: %s\n", error.c_str());
    return 1;
  }

  std::printf("serve_load: sent=%lld (%.0f req/s) replies=%lld "
              "(%.0f rep/s)\n",
              static_cast<long long>(result.sent), result.sent_rps(),
              static_cast<long long>(result.replies), result.reply_rps());
  std::printf("serve_load: ok=%lld (warm=%lld cold=%lld) "
              "shed{full=%lld deadline=%lld shutdown=%lld degraded=%lld} "
              "rejected=%lld failed=%lld backlog-peak=%zuB\n",
              static_cast<long long>(result.ok),
              static_cast<long long>(result.warm),
              static_cast<long long>(result.cold),
              static_cast<long long>(result.shed_queue_full),
              static_cast<long long>(result.shed_deadline),
              static_cast<long long>(result.shed_shutdown),
              static_cast<long long>(result.shed_degraded),
              static_cast<long long>(result.rejected),
              static_cast<long long>(result.failed),
              result.peak_backlog_bytes);
  if (config.retry.enabled) {
    std::printf("serve_load: retry unique=%lld retries=%lld timeouts=%lld "
                "gave-up=%lld dup-ok=%lld reconnects=%lld goodput=%.2f%%\n",
                static_cast<long long>(result.unique_sends()),
                static_cast<long long>(result.retries),
                static_cast<long long>(result.timeouts),
                static_cast<long long>(result.gave_up),
                static_cast<long long>(result.duplicate_ok),
                static_cast<long long>(result.reconnects),
                result.goodput() * 100.0);
  }
  std::printf("serve_load: e2e p50=%.3fms p90=%.3fms p99=%.3fms "
              "p99.9=%.3fms max=%.3fms (n=%lld)\n",
              result.latency.PercentileMs(50.0),
              result.latency.PercentileMs(90.0),
              result.latency.PercentileMs(99.0),
              result.latency.PercentileMs(99.9),
              static_cast<double>(result.latency.max_ns()) / 1e6,
              static_cast<long long>(result.latency.count()));

  if (!latency_out.empty()) {
    std::ofstream out(latency_out, std::ios::binary);
    if (out.is_open()) {
      WriteLatencyCsv("serve_load_e2e", result.latency, out);
    } else {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   latency_out.c_str());
    }
  }
  return 0;
}
