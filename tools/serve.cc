// serve: run the wall-clock serving front-end (src/serve) as a process.
//
// Starts N epoll event loops (SO_REUSEPORT on one port) bridging the wire
// protocol into the cluster's admission machinery, prints a periodic stats
// line, and on SIGINT/SIGTERM (or after --duration) shuts down gracefully:
// accept loops stop, queued requests are shed as shed_shutdown, in-flight
// simulated executions finish, reply bytes flush, and the telemetry
// exporters write their files before the process exits.
//
//   serve --port 7433 --loops 2 --executors 4 --concurrency-cap 64
//         --admission-queue 512 --admission-discipline codel
//         --service-us 200 --cold-us 5000
//         --metrics-out serve_metrics.prom --latency-out serve_latency.csv
//
// Flags:
//   --host H=127.0.0.1         listen address
//   --port P=7433              listen port (0 = ephemeral, printed at start)
//   --loops N=0                event loops (0 = one per online CPU)
//   --pin                      pin loops to NUMA-interleaved CPUs
//   --duration D=0             stop after D seconds (0 = run until signal)
//   --stats-interval D=5       seconds between stderr stats lines (0 = off)
// admission path:
//   --executors N=2            concurrency shards standing in for invokers
//   plus policy_eval's overload flags (tools/overload_flags.h), per executor;
//   --admission-queue 0 (the default) rejects instead of queueing
// simulated execution:
//   --service-us X=0           per-request service time (0 = inline ingest)
//   --cold-us X=0              extra cold-start penalty
//   --keep-alive-ms X=10000    warm-container keep-alive (0 = always cold)
// chaos + self-healing (all off by default; off = byte-identical serving):
//   --chaos SPEC               seeded fault plan, e.g.
//                              "crash:executor=0,at=1s,down=500ms;
//                               connreset:at=0s,for=10s,p=0.01"
//   --chaos-seed S=42          RNG seed for probabilistic injections
//   --watchdog                 scan for stalled shards and restart them
//   --watchdog-interval-ms X=100   scan period
//   --stall-threshold-ms X=1000    overdue-by threshold marking a stall
//   --no-rescue                shed a restarted shard's queue (not re-run)
//   --degrade                  tiered graceful degradation under pressure
//   --degrade-enter F=0.8      pressure to escalate a tier
//   --degrade-exit F=0.5       pressure to recover a tier
//   --degrade-dwell-ms X=200   minimum dwell between tier changes
//   --dedupe                   idempotent retry dedupe (request-id cache)
//   --dedupe-ttl-ms X=10000    cached-reply retention
// telemetry:
//   --metrics-out FILE         Prometheus text (counters + latency histogram;
//                              faas_serve_recovery_* only with knobs above)
//   --latency-out FILE         latency summary + bucket CSV

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "src/serve/chaos.h"
#include "src/serve/idempotency.h"
#include "src/serve/server.h"
#include "src/telemetry/export.h"
#include "src/telemetry/metrics.h"
#include "tools/flags.h"
#include "tools/overload_flags.h"

namespace {

using namespace faas;

volatile std::sig_atomic_t g_stop = 0;

void OnSignal(int /*signum*/) { g_stop = 1; }

// Folds a final ServeStats into a registry so the serving counters ride the
// standard Prometheus exporter, then appends the latency histogram.
// Recovery metrics are registered only when the self-healing knobs were on,
// so a plain run's export stays byte-identical to earlier builds.
void WriteMetrics(const ServeStats& stats, bool recovery,
                  const std::string& path) {
  MetricsRegistry registry;
  const struct {
    const char* name;
    const char* help;
    int64_t value;
  } counters[] = {
      {"faas_serve_connections_total", "Connections accepted.",
       stats.connections_accepted},
      {"faas_serve_requests_total", "Request frames admitted.",
       stats.bridge.requests},
      {"faas_serve_served_warm_total", "Requests served warm.",
       stats.bridge.served_warm},
      {"faas_serve_served_cold_total", "Requests served cold.",
       stats.bridge.served_cold},
      {"faas_serve_rejected_total", "Requests rejected (no queue, no slot).",
       stats.bridge.rejected},
      {"faas_serve_shed_queue_full_total", "Requests shed: queue full.",
       stats.ledger.shed_queue_full},
      {"faas_serve_shed_deadline_total", "Requests shed: deadline/CoDel.",
       stats.ledger.shed_deadline},
      {"faas_serve_shed_shutdown_total", "Requests shed at shutdown.",
       stats.ledger.shed_at_shutdown},
      {"faas_serve_queued_total", "Requests that waited in the queue.",
       stats.ledger.queued},
      {"faas_serve_hedges_total", "Hedged dispatches launched.",
       stats.ledger.hedges_launched},
      {"faas_serve_hedge_wins_total", "Hedges that beat the primary.",
       stats.ledger.hedge_wins},
      {"faas_serve_breaker_opens_total", "Circuit-breaker opens.",
       stats.ledger.breaker_opens},
      {"faas_serve_evictions_total", "Warm containers expired.",
       stats.bridge.evictions},
      {"faas_serve_protocol_errors_total", "Connections dropped on bad input.",
       stats.protocol_errors},
      {"faas_serve_bytes_in_total", "Bytes read.", stats.bytes_in},
      {"faas_serve_bytes_out_total", "Bytes written.", stats.bytes_out},
  };
  for (const auto& counter : counters) {
    registry.Inc(registry.AddCounter(counter.name, counter.help),
                 counter.value);
  }
  if (recovery) {
    const RecoveryLedger& r = stats.recovery;
    const struct {
      const char* name;
      const char* help;
      int64_t value;
    } recovery_counters[] = {
        {"faas_serve_recovery_watchdog_restarts_total",
         "Stalled shards restarted by the watchdog.", r.watchdog_restarts},
        {"faas_serve_recovery_crash_restarts_total",
         "Crashed shards healed by the chaos plan.", r.crash_restarts},
        {"faas_serve_recovery_inflight_failed_total",
         "Executions failed by a shard crash/restart.", r.inflight_failed},
        {"faas_serve_recovery_requests_rescued_total",
         "Queued requests re-dispatched after a restart.",
         r.requests_rescued},
        {"faas_serve_recovery_warm_quarantined_total",
         "Warm containers quarantined on crash/restart.",
         r.warm_quarantined},
        {"faas_serve_recovery_retries_deduped_total",
         "Retries answered from the dedupe cache.", r.retries_deduped},
        {"faas_serve_recovery_dupes_inflight_total",
         "Duplicate arrivals dropped while the original ran.",
         r.dupes_inflight},
        {"faas_serve_recovery_executions_total",
         "Executions actually started (dedupe identity).", r.executions},
        {"faas_serve_recovery_conn_resets_injected_total",
         "Connections reset by the chaos plan.", r.conn_resets_injected},
        {"faas_serve_recovery_unhealthy_skips_total",
         "Dispatches diverted off an unhealthy shard.", r.unhealthy_skips},
        {"faas_serve_recovery_degrade_escalations_total",
         "Degradation tier escalations.", r.degrade_escalations},
        {"faas_serve_recovery_degrade_recoveries_total",
         "Degradation tier recoveries.", r.degrade_recoveries},
        {"faas_serve_recovery_shed_degraded_total",
         "Requests shed by a degradation tier.", r.shed_degraded},
        {"faas_serve_recovery_hedges_suppressed_total",
         "Hedge launches suppressed by degradation.", r.hedges_suppressed},
        {"faas_serve_recovery_recoveries_total",
         "Shard outages healed (MTTR denominator).", r.recoveries},
    };
    for (const auto& counter : recovery_counters) {
      registry.Inc(registry.AddCounter(counter.name, counter.help),
                   counter.value);
    }
    registry.Set(registry.AddGauge("faas_serve_recovery_mttr_mean_ms",
                                   "Mean time to recovery."),
                 r.MeanMttrMs(), TimePoint{});
    registry.Set(registry.AddGauge("faas_serve_recovery_mttr_max_ms",
                                   "Worst single outage."),
                 r.max_mttr_ms, TimePoint{});
    registry.Set(registry.AddGauge("faas_serve_recovery_degrade_max_tier",
                                   "Deepest degradation tier reached."),
                 static_cast<double>(r.degrade_max_tier), TimePoint{});
    for (int tier = 0; tier < kDegradeTiers; ++tier) {
      registry.Set(
          registry.AddGauge("faas_serve_recovery_tier_dwell_ms",
                            "Dwell time per degradation tier.",
                            "tier=\"" + std::to_string(tier) + "\""),
          r.tier_dwell_ms[tier], TimePoint{});
    }
  }
  std::ofstream out(path, std::ios::binary);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  WritePrometheusText(registry.Scrape(), out);
  WriteLatencyPrometheus("faas_serve_latency_ms", "", stats.latency, out);
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv) || flags.Has("help")) {
    std::fprintf(
        stderr,
        "usage: serve [--host H=127.0.0.1] [--port P=7433] [--loops N=0]\n"
        "             [--pin] [--duration D=0] [--stats-interval D=5]\n"
        "             [--executors N=2] [--concurrency-cap N=0]\n"
        "             [--admission-queue N=0]\n"
        "             [--admission-discipline fifo|lifo|codel]\n"
        "             [--queue-max-wait D=30s]\n"
        "             [--breaker] [--breaker-window N] "
        "[--breaker-threshold F]\n"
        "             [--breaker-open D] [--breaker-latency-ms X]\n"
        "             [--hedge D] [--hedge-percentile P]\n"
        "             [--service-us X=0] [--cold-us X=0] "
        "[--keep-alive-ms X=10000]\n"
        "             [--chaos SPEC] [--chaos-seed S=42]\n"
        "             [--watchdog] [--watchdog-interval-ms X=100]\n"
        "             [--stall-threshold-ms X=1000] [--no-rescue]\n"
        "             [--degrade] [--degrade-enter F=0.8] "
        "[--degrade-exit F=0.5]\n"
        "             [--degrade-dwell-ms X=200]\n"
        "             [--dedupe] [--dedupe-ttl-ms X=10000]\n"
        "             [--metrics-out FILE] [--latency-out FILE]\n");
    return flags.Has("help") ? 0 : 2;
  }

  ServeConfig config;
  config.host = flags.GetString("host", "127.0.0.1");
  config.port = static_cast<uint16_t>(flags.GetInt("port", 7433));
  config.num_loops = static_cast<int>(flags.GetInt("loops", 0));
  config.pin_loops = flags.GetBool("pin", false);

  AdmissionBridgeConfig& bridge = config.bridge;
  bridge.num_executors = static_cast<int>(flags.GetInt("executors", 2));
  bridge.service_time_us =
      static_cast<uint32_t>(flags.GetInt("service-us", 0));
  bridge.cold_start_us = static_cast<uint32_t>(flags.GetInt("cold-us", 0));
  bridge.keep_alive_ms = flags.GetInt("keep-alive-ms", 10'000);
  if (!ParseOverloadFlags(flags, &bridge.overload)) {
    return 2;
  }

  if (flags.Has("chaos")) {
    std::string parse_error;
    const auto plan =
        serve::ServeChaosPlan::Parse(flags.GetString("chaos", ""),
                                     &parse_error);
    if (!plan.has_value()) {
      std::fprintf(stderr, "serve: bad --chaos: %s\n", parse_error.c_str());
      return 2;
    }
    const std::string invalid = plan->Validate(bridge.num_executors);
    if (!invalid.empty()) {
      std::fprintf(stderr, "serve: bad --chaos: %s\n", invalid.c_str());
      return 2;
    }
    bridge.chaos = *plan;
  }
  bridge.chaos_seed = static_cast<uint64_t>(flags.GetInt("chaos-seed", 42));
  if (flags.GetBool("watchdog", false) || flags.Has("watchdog-interval-ms") ||
      flags.Has("stall-threshold-ms")) {
    bridge.watchdog.enabled = true;
    bridge.watchdog.interval =
        Duration::Millis(flags.GetInt("watchdog-interval-ms", 100));
    bridge.watchdog.stall_threshold =
        Duration::Millis(flags.GetInt("stall-threshold-ms", 1'000));
    bridge.watchdog.rescue_queued = !flags.GetBool("no-rescue", false);
  }
  if (flags.GetBool("degrade", false) || flags.Has("degrade-enter") ||
      flags.Has("degrade-exit") || flags.Has("degrade-dwell-ms")) {
    bridge.degrade.enabled = true;
    bridge.degrade.enter_pressure = flags.GetDouble("degrade-enter", 0.8);
    bridge.degrade.exit_pressure = flags.GetDouble("degrade-exit", 0.5);
    bridge.degrade.min_dwell =
        Duration::Millis(flags.GetInt("degrade-dwell-ms", 200));
  }
  std::unique_ptr<serve::IdempotencyIndex> dedupe;
  if (flags.GetBool("dedupe", false) || flags.Has("dedupe-ttl-ms")) {
    dedupe = std::make_unique<serve::IdempotencyIndex>(
        flags.GetInt("dedupe-ttl-ms", 10'000) * 1'000'000);
    bridge.dedupe = dedupe.get();
  }
  const bool recovery_on = !bridge.chaos.Empty() || bridge.watchdog.enabled ||
                           bridge.degrade.enabled || bridge.dedupe != nullptr;
  const int64_t duration_s = flags.GetInt("duration", 0);
  const int64_t stats_interval_s = flags.GetInt("stats-interval", 5);
  const std::string metrics_out = flags.GetString("metrics-out", "");
  const std::string latency_out = flags.GetString("latency-out", "");
  if (!flags.CheckAllRead()) {
    return 2;
  }

  // Library code uses MSG_NOSIGNAL, but injected resets can still surface
  // EPIPE through racing writes; never let SIGPIPE kill the process.
  std::signal(SIGPIPE, SIG_IGN);

  ServeServer server(config);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "serve: cannot start: %s\n", error.c_str());
    return 1;
  }
  std::signal(SIGINT, &OnSignal);
  std::signal(SIGTERM, &OnSignal);
  std::printf("serve: listening on %s:%u, %d loop(s), %d executor(s), "
              "queue=%d(%s) breaker=%s hedge=%s cap=%d\n",
              config.host.c_str(), server.port(), server.num_loops(),
              bridge.num_executors, bridge.overload.admission.capacity,
              AdmissionDisciplineName(bridge.overload.admission.discipline),
              bridge.overload.breaker.enabled ? "on" : "off",
              bridge.overload.hedge.enabled() ? "on" : "off",
              bridge.overload.invoker_concurrency_cap);
  if (recovery_on) {
    std::printf("serve: chaos=%s watchdog=%s degrade=%s dedupe=%s\n",
                bridge.chaos.Empty() ? "off" : "on",
                bridge.watchdog.enabled ? "on" : "off",
                bridge.degrade.enabled ? "on" : "off",
                bridge.dedupe != nullptr ? "on" : "off");
  }
  std::fflush(stdout);

  int64_t elapsed_ms = 0;
  int64_t last_stats_ms = 0;
  int64_t last_served = 0;
  while (g_stop == 0 &&
         (duration_s <= 0 || elapsed_ms < duration_s * 1'000)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    elapsed_ms += 100;
    if (stats_interval_s > 0 &&
        elapsed_ms - last_stats_ms >= stats_interval_s * 1'000) {
      last_stats_ms = elapsed_ms;
      const ServeStats stats = server.Snapshot();
      const int64_t served = stats.bridge.served();
      std::fprintf(stderr,
                   "serve: %.0f req/s, served=%lld (warm=%lld cold=%lld) "
                   "shed=%lld rejected=%lld queued=%lld p99=%.3fms\n",
                   static_cast<double>(served - last_served) /
                       static_cast<double>(stats_interval_s),
                   static_cast<long long>(served),
                   static_cast<long long>(stats.bridge.served_warm),
                   static_cast<long long>(stats.bridge.served_cold),
                   static_cast<long long>(stats.ledger.shed_queue_full +
                                          stats.ledger.shed_deadline +
                                          stats.ledger.shed_at_shutdown),
                   static_cast<long long>(stats.bridge.rejected),
                   static_cast<long long>(stats.ledger.queued),
                   stats.latency.PercentileMs(99.0));
      last_served = served;
    }
  }

  std::fprintf(stderr, "serve: %s, draining\n",
               g_stop != 0 ? "signal" : "duration reached");
  server.Stop();  // Graceful: shed queue, finish in-flight, flush, join.
  const ServeStats stats = server.Snapshot();
  std::printf("serve: done. requests=%lld served=%lld (warm=%lld cold=%lld) "
              "shed{full=%lld deadline=%lld shutdown=%lld} rejected=%lld\n",
              static_cast<long long>(stats.bridge.requests),
              static_cast<long long>(stats.bridge.served()),
              static_cast<long long>(stats.bridge.served_warm),
              static_cast<long long>(stats.bridge.served_cold),
              static_cast<long long>(stats.ledger.shed_queue_full),
              static_cast<long long>(stats.ledger.shed_deadline),
              static_cast<long long>(stats.ledger.shed_at_shutdown),
              static_cast<long long>(stats.bridge.rejected));
  std::printf("serve: latency p50=%.3fms p90=%.3fms p99=%.3fms p99.9=%.3fms "
              "max=%.3fms (n=%lld)\n",
              stats.latency.PercentileMs(50.0),
              stats.latency.PercentileMs(90.0),
              stats.latency.PercentileMs(99.0),
              stats.latency.PercentileMs(99.9),
              static_cast<double>(stats.latency.max_ns()) / 1e6,
              static_cast<long long>(stats.latency.count()));
  if (recovery_on) {
    const RecoveryLedger& r = stats.recovery;
    std::printf(
        "serve: recovery restarts{watchdog=%lld crash=%lld} "
        "failed=%lld rescued=%lld deduped=%lld executions=%lld "
        "resets=%lld mttr{mean=%.1fms max=%.1fms n=%lld} max-tier=%lld\n",
        static_cast<long long>(r.watchdog_restarts),
        static_cast<long long>(r.crash_restarts),
        static_cast<long long>(r.inflight_failed),
        static_cast<long long>(r.requests_rescued),
        static_cast<long long>(r.retries_deduped),
        static_cast<long long>(r.executions),
        static_cast<long long>(r.conn_resets_injected), r.MeanMttrMs(),
        r.max_mttr_ms, static_cast<long long>(r.recoveries),
        static_cast<long long>(r.degrade_max_tier));
  }

  if (!metrics_out.empty()) {
    WriteMetrics(stats, recovery_on, metrics_out);
  }
  if (!latency_out.empty()) {
    std::ofstream out(latency_out, std::ios::binary);
    if (out.is_open()) {
      WriteLatencyCsv("serve_latency", stats.latency, out);
    } else {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   latency_out.c_str());
    }
  }
  return 0;
}
