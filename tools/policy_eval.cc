// policy_eval: evaluate keep-alive policies on a trace in the Azure public
// dataset CSV schema (as produced by trace_gen, or assembled from the real
// AzurePublicDataset files).
//
// Usage:
//   policy_eval --trace DIR [--policies LIST] [--baseline NAME]
//               [--range-minutes N=240] [--cv T=2] [--head P=5] [--tail P=99]
//               [--use-exec-times] [--weight-by-memory] [--threads N=0]
//               [--skip-malformed]
//
// --threads sets the sweep parallelism (0 = all hardware cores, 1 = fully
// sequential).  Results are bit-identical at any thread count.
// --skip-malformed tolerates malformed CSV rows (each is skipped with a
// warning) instead of failing the read on the first bad row.
//
// Synthetic input — instead of --trace, sample a workload in-process:
//   policy_eval --gen-apps N [--gen-days D=14] [--gen-seed S=42]
//               [--gen-rate-cap R=8000]
//
// Streaming mode (sweep only; Azure-scale traces with bounded memory):
//   --stream                 pull the trace through the sharded streaming
//                            sweep engine instead of materializing it; with
//                            --gen-apps the full trace is never built at
//                            all (shards come straight from the generator)
//   --shard-apps N=1024      apps per shard
//   --max-resident-shards    bound on shard arenas resident at once
//         K=4                (with --threads > 1, windows of
//                            min(K / 2, threads) shards replay while the
//                            next window generates; K = 1 or one thread
//                            alternates generate / replay on one arena)
// Streamed results are byte-identical to the materialized sweep at any
// shard size, residency bound and thread count.  Streaming is incompatible
// with chaos/overload mode, telemetry exports and --flash-crowds.
// Every run ends with a "peak rss" line (getrusage high-water mark).
//
// Telemetry (works in both sweep and chaos mode; all optional):
//   --trace-out=FILE        Chrome trace_event JSON of activation /
//                           container spans (chrome://tracing, Perfetto).
//   --metrics-out=FILE      Prometheus text exposition of every counter,
//                           gauge, histogram and series.
//   --series-out=FILE       wide CSV of the per-interval series (cold-start
//                           rate, queue depth, resident memory).
//   --metrics-interval=D    sampling period for the cluster series
//                           (default 60s; chaos mode only — the sweep's
//                           series are fixed per-minute bins).
//   --progress              periodic stderr heartbeat (rate, % complete,
//                           ETA) driven by the live telemetry counters.
//
// LIST is comma-separated from: fixed-5, fixed-10, ..., fixed-240 (any
// minute count), no-unload, hybrid, hybrid-no-arima, hybrid-no-prewarm,
// production.  Default: "fixed-10,fixed-60,hybrid".
//
// Chaos mode — any of the fault flags switches evaluation from the app-level
// sweep to the mini-OpenWhisk cluster simulator with fault injection:
//   policy_eval --trace DIR --faults SPEC | --mtbf H [--mttr M]
//               [--wipe-mtbf H] [--fault-seed N]
//               [--invokers N=18] [--invoker-memory MB=4096]
//               [--retries N] [--timeout D] [--backoff D] [--checkpoint D]
//
// SPEC is semicolon-separated clauses: crash:invoker=I,at=D,down=D;
// wipe:at=D; spike:at=D,for=D,x=M; flaky:at=D,for=D,p=P, with durations
// accepting ms/s/m/h/d suffixes.  The report adds the failure ledger
// (crashes, retries, timeouts, abandoned/lost activations, degraded time).
//
// Overload control plane — --overload (the default bundle: admission queue
// of 64 FIFO + circuit breakers) or any flag of tools/overload_flags.h also
// selects the cluster simulator and adds the overload ledger to the report.
//
// Flash crowds — inject synchronized burst trains into the loaded trace
// before evaluation (deterministic given --flash-seed):
//   --flash-crowds N [--flash-minutes M=10] [--flash-fraction F=0.3]
//   [--flash-events E=80] [--flash-seed S=1234]

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

#include "src/cluster/cluster.h"
#include "src/faults/fault_plan.h"
#include "src/policy/hybrid.h"
#include "src/policy/policy.h"
#include "src/policy/production_policy.h"
#include "src/sim/shard_source.h"
#include "src/sim/sweep.h"
#include "src/telemetry/export.h"
#include "src/telemetry/telemetry.h"
#include "src/trace/csv.h"
#include "src/workload/arrival.h"
#include "src/workload/generator.h"
#include "tools/flags.h"
#include "tools/overload_flags.h"

namespace {

using namespace faas;

// Process peak RSS in MB (ru_maxrss is KB on Linux, bytes on macOS), or a
// negative value when the platform has no getrusage.
double PeakRssMb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return -1.0;
  }
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
#endif
#else
  return -1.0;
#endif
}

void PrintPeakRss() {
  const double mb = PeakRssMb();
  if (mb >= 0.0) {
    std::printf("peak rss: %.1f MB\n", mb);
  }
}

std::unique_ptr<PolicyFactory> MakeFactory(std::string_view name,
                                           const HybridPolicyConfig& hybrid) {
  if (name == "no-unload") {
    return std::make_unique<NoUnloadFactory>();
  }
  if (name == "hybrid") {
    return std::make_unique<HybridPolicyFactory>(hybrid);
  }
  if (name == "hybrid-no-arima") {
    HybridPolicyConfig config = hybrid;
    config.enable_arima = false;
    return std::make_unique<HybridPolicyFactory>(config);
  }
  if (name == "hybrid-no-prewarm") {
    HybridPolicyConfig config = hybrid;
    config.enable_prewarm = false;
    return std::make_unique<HybridPolicyFactory>(config);
  }
  if (name == "production") {
    ProductionPolicyConfig config;
    config.hybrid = hybrid;
    config.store.bin_width = hybrid.bin_width;
    config.store.num_bins = hybrid.num_bins;
    return std::make_unique<ProductionPolicyFactory>(config);
  }
  if (StartsWith(name, "fixed-")) {
    const auto minutes = ParseInt64(name.substr(6));
    if (minutes.has_value() && *minutes > 0) {
      return std::make_unique<FixedKeepAliveFactory>(
          Duration::Minutes(*minutes));
    }
  }
  return nullptr;
}

// Background stderr heartbeat driven by the live telemetry counters: the
// sweep and cluster hot paths bump relaxed atomics, so a reader thread can
// sum them without synchronising with the workers.
class ProgressHeartbeat {
 public:
  ProgressHeartbeat(const MetricsRegistry* registry, std::string counter_base,
                    std::string unit, int64_t total)
      : registry_(registry),
        counter_base_(std::move(counter_base)),
        unit_(std::move(unit)),
        total_(total),
        start_(std::chrono::steady_clock::now()) {
    if (registry_ != nullptr) {
      thread_ = std::thread([this]() { Loop(); });
    }
  }

  ~ProgressHeartbeat() {
    if (!thread_.joinable()) {
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    Beat();  // Final line so the log ends at the true completion count.
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::seconds(2));
      if (stop_) {
        return;
      }
      Beat();
    }
  }

  void Beat() const {
    const int64_t done = registry_->SumCountersByBase(counter_base_);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    const double rate = elapsed > 0.0 ? static_cast<double>(done) / elapsed
                                      : 0.0;
    const double pct =
        total_ > 0 ? 100.0 * static_cast<double>(done) /
                         static_cast<double>(total_)
                   : 0.0;
    const double eta =
        rate > 0.0 ? static_cast<double>(total_ - done) / rate : 0.0;
    std::fprintf(stderr,
                 "progress: %lld/%lld %s (%.1f%%), %.0f %s/s, eta %.0fs\n",
                 static_cast<long long>(done),
                 static_cast<long long>(total_), unit_.c_str(), pct,
                 rate, unit_.c_str(), eta < 0.0 ? 0.0 : eta);
  }

  const MetricsRegistry* registry_;
  std::string counter_base_;
  std::string unit_;
  int64_t total_;
  std::chrono::steady_clock::time_point start_;
  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

// Writes whichever exports were requested.  Returns 0, or 1 if a file could
// not be opened.
int WriteTelemetryOutputs(const FlagParser& flags,
                          const Telemetry* telemetry) {
  if (telemetry == nullptr) {
    return 0;
  }
  const auto open = [](const std::string& path,
                       std::ofstream& out) -> bool {
    out.open(path, std::ios::binary);
    if (!out.is_open()) {
      std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
      return false;
    }
    return true;
  };
  if (flags.Has("trace-out")) {
    std::ofstream out;
    if (!open(flags.GetString("trace-out", ""), out)) {
      return 1;
    }
    WriteChromeTrace(telemetry->tracer().Collect(), out);
  }
  if (flags.Has("metrics-out") || flags.Has("series-out")) {
    const RegistrySnapshot snapshot = telemetry->metrics().Scrape();
    if (flags.Has("metrics-out")) {
      std::ofstream out;
      if (!open(flags.GetString("metrics-out", ""), out)) {
        return 1;
      }
      WritePrometheusText(snapshot, out);
    }
    if (flags.Has("series-out")) {
      std::ofstream out;
      if (!open(flags.GetString("series-out", ""), out)) {
        return 1;
      }
      WriteSeriesCsv(snapshot, out);
    }
  }
  return 0;
}

#if defined(__unix__) || defined(__APPLE__)
// --progress marks a long interactive run; a SIGINT/SIGTERM mid-sweep
// should still leave the requested telemetry exports on disk instead of
// losing hours of counters.  The handler itself is async-signal-safe (one
// byte to a self-pipe); a watcher thread does the flushing and exits with
// the conventional 128+signum status.  Scrape and Collect run under the
// same locks as the sweep tasks' folds, so the flush races no writer and
// exports every task folded so far, each one whole.
int g_signal_pipe[2] = {-1, -1};

void OnTerminateSignal(int signum) {
  const auto byte = static_cast<unsigned char>(signum);
  [[maybe_unused]] const ssize_t n = write(g_signal_pipe[1], &byte, 1);
}

class SignalFlushGuard {
 public:
  SignalFlushGuard(const FlagParser& flags, const Telemetry* telemetry)
      : flags_(flags), telemetry_(telemetry) {
    if (pipe(g_signal_pipe) != 0) {
      return;
    }
    std::signal(SIGINT, &OnTerminateSignal);
    std::signal(SIGTERM, &OnTerminateSignal);
    watcher_ = std::thread([this]() {
      unsigned char byte = 0;
      if (read(g_signal_pipe[0], &byte, 1) != 1 || byte == 0) {
        return;  // Destructor shutdown, not a signal.
      }
      std::fprintf(stderr,
                   "\ninterrupted (%s): flushing telemetry exports\n",
                   byte == SIGTERM ? "SIGTERM" : "SIGINT");
      WriteTelemetryOutputs(flags_, telemetry_);
      std::_Exit(128 + byte);
    });
  }

  ~SignalFlushGuard() {
    if (!watcher_.joinable()) {
      return;
    }
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    const unsigned char zero = 0;
    [[maybe_unused]] const ssize_t n = write(g_signal_pipe[1], &zero, 1);
    watcher_.join();
    close(g_signal_pipe[0]);
    close(g_signal_pipe[1]);
    g_signal_pipe[0] = g_signal_pipe[1] = -1;
  }

 private:
  const FlagParser& flags_;
  const Telemetry* telemetry_;
  std::thread watcher_;
};
#endif

// True when any overload-control or flash-crowd flag was passed (each one
// routes evaluation through the cluster simulator, like the fault flags).
bool HasOverloadFlags(const FlagParser& flags) {
  if (flags.Has("overload") || flags.Has("flash-crowds")) {
    return true;
  }
  for (const char* name : kOverloadFlagNames) {
    if (flags.Has(name)) {
      return true;
    }
  }
  return false;
}

// True when any network-model flag was passed (each one routes evaluation
// through the cluster simulator with the transport layer enabled).
bool HasNetworkFlags(const FlagParser& flags) {
  static const char* kFlags[] = {"net-latency", "net-queue-cap", "net-loss",
                                 "net-partition"};
  for (const char* name : kFlags) {
    if (flags.Has(name)) {
      return true;
    }
  }
  return false;
}

// Fills `config->network` (and appends the implied full-horizon loss window /
// partition events to `config->faults`) from the command line.  Returns false
// (after printing a diagnostic) on a malformed flag.
bool ParseNetworkFlags(const FlagParser& flags, ClusterConfig* config,
                       Duration horizon) {
  if (!HasNetworkFlags(flags)) {
    return true;
  }
  config->network.enabled = true;
  if (flags.Has("net-latency")) {
    const double median_ms = flags.GetDouble("net-latency", 0.5);
    if (median_ms <= 0.0) {
      std::fprintf(stderr, "--net-latency must be positive (median ms)\n");
      return false;
    }
    config->network.uplink.latency_median_ms = median_ms;
    config->network.downlink.latency_median_ms = median_ms;
  }
  if (flags.Has("net-queue-cap")) {
    const int capacity = static_cast<int>(flags.GetInt("net-queue-cap", 0));
    if (capacity <= 0) {
      std::fprintf(stderr, "--net-queue-cap must be positive\n");
      return false;
    }
    config->network.uplink.queue_capacity = capacity;
    config->network.downlink.queue_capacity = capacity;
  }
  if (flags.Has("net-loss")) {
    const double p = flags.GetDouble("net-loss", 0.0);
    if (p < 0.0 || p >= 1.0) {
      std::fprintf(stderr, "--net-loss must be in [0, 1)\n");
      return false;
    }
    if (p > 0.0) {
      NetLossWindow window;
      window.invoker = -1;  // Every link.
      window.start = TimePoint::Origin();
      window.duration = horizon;
      window.probability = p;
      config->faults.loss_windows.push_back(window);
    }
  }
  if (flags.Has("net-partition")) {
    // Comma-separated "I@AT+DUR" items: invoker index (or `all`), partition
    // start, partition duration, e.g. --net-partition "3@10m+2m,all@1h+30s".
    const std::string spec = flags.GetString("net-partition", "");
    for (std::string_view item : SplitString(spec, ',')) {
      item = StripWhitespace(item);
      if (item.empty()) {
        continue;
      }
      const size_t at_pos = item.find('@');
      const size_t plus_pos = item.find('+');
      if (at_pos == std::string_view::npos ||
          plus_pos == std::string_view::npos || plus_pos < at_pos) {
        std::fprintf(stderr,
                     "--net-partition: want I@AT+DUR (e.g. 3@10m+2m or "
                     "all@1h+30s), got '%.*s'\n",
                     static_cast<int>(item.size()), item.data());
        return false;
      }
      NetPartitionEvent event;
      const std::string who(StripWhitespace(item.substr(0, at_pos)));
      if (who == "all") {
        event.invoker = -1;
      } else {
        char* end = nullptr;
        event.invoker = static_cast<int>(std::strtol(who.c_str(), &end, 10));
        if (end == who.c_str() || *end != '\0' || event.invoker < 0) {
          std::fprintf(stderr, "--net-partition: bad invoker '%s'\n",
                       who.c_str());
          return false;
        }
      }
      const auto at =
          ParseDuration(item.substr(at_pos + 1, plus_pos - at_pos - 1));
      const auto duration = ParseDuration(item.substr(plus_pos + 1));
      if (!at.has_value() || !duration.has_value() || at->IsNegative() ||
          !(*duration > Duration::Zero())) {
        std::fprintf(stderr, "--net-partition: bad window in '%.*s'\n",
                     static_cast<int>(item.size()), item.data());
        return false;
      }
      event.start = TimePoint::Origin() + *at;
      event.duration = *duration;
      config->faults.partitions.push_back(event);
    }
  }
  return true;
}

// Evaluates the requested policies on the cluster simulator under a fault
// plan and prints the outcome split plus the failure ledger per policy.
int RunChaosEvaluation(const FlagParser& flags, const Trace& trace,
                       const std::vector<const PolicyFactory*>& factories,
                       Telemetry* telemetry, Duration metrics_interval) {
  ClusterConfig config;
  config.num_invokers = static_cast<int>(flags.GetInt("invokers", 18));
  config.invoker_memory_mb = flags.GetDouble("invoker-memory", 4096.0);
  if (config.num_invokers <= 0) {
    std::fprintf(stderr, "--invokers must be positive\n");
    return 2;
  }

  if (flags.Has("faults")) {
    std::string error;
    const auto plan = FaultPlan::Parse(flags.GetString("faults", ""), &error);
    if (!plan.has_value()) {
      std::fprintf(stderr, "--faults: %s\n", error.c_str());
      return 2;
    }
    config.faults = *plan;
  } else if (flags.Has("mtbf")) {
    MtbfModel model;
    model.mtbf_hours = flags.GetDouble("mtbf", model.mtbf_hours);
    model.mttr_minutes = flags.GetDouble("mttr", model.mttr_minutes);
    model.wipe_mtbf_hours =
        flags.GetDouble("wipe-mtbf", model.wipe_mtbf_hours);
    model.seed = static_cast<uint64_t>(flags.GetInt("fault-seed", 42));
    config.faults =
        FaultPlan::FromMtbf(model, config.num_invokers, trace.horizon);
    std::printf("generated fault plan: %zu crashes, %zu wipes "
                "(mtbf=%.2gh, mttr=%.2gm, seed=%llu)\n",
                config.faults.crashes.size(), config.faults.wipes.size(),
                model.mtbf_hours, model.mttr_minutes,
                static_cast<unsigned long long>(model.seed));
  }
  if (!ParseNetworkFlags(flags, &config, trace.horizon)) {
    return 2;
  }
  if (config.faults.HasNetworkFaults() && !config.network.enabled) {
    // A --faults spec with network clauses implies the transport layer.
    config.network.enabled = true;
  }
  const std::string plan_error = config.faults.Validate(config.num_invokers);
  if (!plan_error.empty()) {
    std::fprintf(stderr, "invalid fault plan: %s\n", plan_error.c_str());
    return 2;
  }

  config.retry.max_retries = static_cast<int>(flags.GetInt("retries", 0));
  if (const auto timeout = GetDurationFlag(flags, "timeout")) {
    config.retry.activation_timeout = *timeout;
  } else if (flags.Has("timeout")) {
    return 2;
  }
  if (const auto backoff = GetDurationFlag(flags, "backoff")) {
    config.retry.base_backoff = *backoff;
  } else if (flags.Has("backoff")) {
    return 2;
  }
  if (const auto checkpoint = GetDurationFlag(flags, "checkpoint")) {
    config.policy_checkpoint_interval = *checkpoint;
  } else if (flags.Has("checkpoint")) {
    return 2;
  }

  if (flags.GetBool("overload", false)) {
    // Default bundle: a modest FIFO queue plus breakers; hedging stays
    // opt-in because it adds load to an already-loaded cluster.  Explicit
    // overload flags override it.
    config.overload.admission.capacity = 64;
    config.overload.breaker.enabled = true;
  }
  if (!ParseOverloadFlags(flags, &config.overload)) {
    return 2;
  }

  config.telemetry = telemetry;
  config.metrics_interval = metrics_interval;
  config.cost.dollars_per_gb_second = flags.GetDouble("cost-gb-s", 0.0);
  config.cost.dollars_per_cpu_second = flags.GetDouble("cost-cpu-s", 0.0);
  config.cost.dollars_per_million_invocations =
      flags.GetDouble("cost-invoke", 0.0);
  // The faas_resource_* metric families register only on request (or when a
  // cost model is priced in), keeping default telemetry exports unchanged.
  config.resource_telemetry =
      flags.GetBool("resource-telemetry", false) || config.cost.enabled();
  if (!flags.CheckAllRead()) {
    return 2;
  }
  std::printf("\nchaos evaluation: %d invokers, %zu crashes, %zu wipes, "
              "%zu spikes, %zu flaky windows, retries=%d\n",
              config.num_invokers, config.faults.crashes.size(),
              config.faults.wipes.size(), config.faults.spikes.size(),
              config.faults.transient_windows.size(),
              config.retry.max_retries);
  if (config.network.enabled) {
    std::printf("network: median latency %.2gms/%.2gms (up/down), queue "
                "cap %d/%d, rpc timeout %.0fms, %d retransmits; faults: "
                "%zu partitions, %zu loss, %zu dup, %zu reorder windows\n",
                config.network.uplink.latency_median_ms,
                config.network.downlink.latency_median_ms,
                config.network.uplink.queue_capacity,
                config.network.downlink.queue_capacity,
                static_cast<double>(config.network.rpc_timeout.millis()),
                config.network.max_retransmits,
                config.faults.partitions.size(),
                config.faults.loss_windows.size(),
                config.faults.duplicate_windows.size(),
                config.faults.reorder_windows.size());
  }
  if (config.overload.AnyEnabled()) {
    std::printf("overload control: queue=%d (%s, max-wait %.1fs) "
                "breaker=%s hedge=%s cap=%d\n",
                config.overload.admission.capacity,
                AdmissionDisciplineName(config.overload.admission.discipline),
                static_cast<double>(
                    config.overload.admission.max_wait.millis()) / 1e3,
                config.overload.breaker.enabled ? "on" : "off",
                config.overload.hedge.enabled() ? "on" : "off",
                config.overload.invoker_concurrency_cap);
  }
  const ProgressHeartbeat heartbeat(
      flags.GetBool("progress", false) && telemetry != nullptr &&
              telemetry->metrics_enabled()
          ? &telemetry->metrics()
          : nullptr,
      "faas_cluster_invocations_total", "invocations",
      trace.TotalInvocations() * static_cast<int64_t>(factories.size()));
  std::printf("\n%-44s %9s %9s %9s %9s %9s %9s\n", "policy", "cold p50",
              "dropped", "rejected", "abandon", "lost", "retries");
  for (size_t i = 0; i < factories.size(); ++i) {
    const PolicyFactory* factory = factories[i];
    // One Chrome-trace process lane per policy.
    config.telemetry_pid = static_cast<int16_t>(i);
    const ClusterSimulator simulator(config);
    const ClusterResult result = simulator.Replay(trace, *factory);
    std::printf("%-44s %8.1f%% %9lld %9lld %9lld %9lld %9lld\n",
                result.policy_name.c_str(),
                result.AppColdStartPercentile(50.0),
                static_cast<long long>(result.total_dropped),
                static_cast<long long>(result.total_rejected_outage),
                static_cast<long long>(result.total_abandoned),
                static_cast<long long>(result.total_lost),
                static_cast<long long>(result.faults.retries_scheduled));
    const FaultLedger& ledger = result.faults;
    std::printf("    crashes=%lld restarts=%lld lost-in-flight=%lld "
                "transient=%lld timeouts=%lld retry-ok=%lld\n",
                static_cast<long long>(ledger.invoker_crashes),
                static_cast<long long>(ledger.invoker_restarts),
                static_cast<long long>(ledger.lost_in_flight),
                static_cast<long long>(ledger.transient_failures),
                static_cast<long long>(ledger.timeouts),
                static_cast<long long>(ledger.retry_successes));
    std::printf("    wipes=%lld restored=%lld lost-state=%lld "
                "degraded-recoveries=%lld degraded-time=%.1fs "
                "cold-after{crash=%lld transient=%lld timeout=%lld "
                "outage=%lld degraded=%lld}\n",
                static_cast<long long>(ledger.policy_state_wipes),
                static_cast<long long>(ledger.policy_states_restored),
                static_cast<long long>(ledger.policy_states_lost),
                static_cast<long long>(ledger.degraded_recoveries),
                ledger.total_degraded_ms / 1e3,
                static_cast<long long>(ledger.cold_starts_after_crash),
                static_cast<long long>(ledger.cold_starts_after_transient),
                static_cast<long long>(ledger.cold_starts_after_timeout),
                static_cast<long long>(ledger.cold_starts_after_outage),
                static_cast<long long>(ledger.cold_starts_in_degraded_mode));
    const ResourceLedger& resources = result.resources;
    std::printf("    resources{idle=%.1fGB-s busy=%.1fGB-s cpu=%.1fs "
                "loads=%lld unloads=%lld}",
                resources.idle_gb_seconds(), resources.busy_gb_seconds(),
                resources.cpu_seconds(),
                static_cast<long long>(resources.container_loads()),
                static_cast<long long>(resources.container_unloads()));
    if (config.cost.enabled()) {
      std::printf(" cost=$%.4f", result.cost_dollars);
    }
    std::printf("\n");
    if (config.network.enabled) {
      std::printf("    net{sent=%lld delivered=%lld "
                  "lost{loss=%lld partition=%lld queue=%lld} dup=%lld "
                  "reorder=%lld} rpc{retx=%lld dedup=%lld giveup=%lld}\n",
                  static_cast<long long>(ledger.net_messages_sent),
                  static_cast<long long>(ledger.net_delivered),
                  static_cast<long long>(ledger.net_lost_to_loss),
                  static_cast<long long>(ledger.net_lost_to_partition),
                  static_cast<long long>(ledger.net_lost_to_queue),
                  static_cast<long long>(ledger.net_duplicates_delivered),
                  static_cast<long long>(ledger.net_reordered),
                  static_cast<long long>(ledger.rpc_retransmits),
                  static_cast<long long>(ledger.rpc_duplicates_suppressed),
                  static_cast<long long>(ledger.rpc_give_ups));
      std::printf("    lost-split{crash=%lld network=%lld} "
                  "network-failures=%lld cold-after-network=%lld\n",
                  static_cast<long long>(ledger.lost_crash),
                  static_cast<long long>(ledger.lost_network),
                  static_cast<long long>(ledger.network_failures),
                  static_cast<long long>(ledger.cold_starts_after_network));
    }
    if (config.overload.AnyEnabled()) {
      const OverloadLedger& overload = result.overload;
      std::printf("    queued=%lld drained=%lld "
                  "shed{full=%lld deadline=%lld shutdown=%lld} "
                  "qwait{mean=%.1fms max=%.1fms}\n",
                  static_cast<long long>(overload.queued),
                  static_cast<long long>(overload.drained),
                  static_cast<long long>(overload.shed_queue_full),
                  static_cast<long long>(overload.shed_deadline),
                  static_cast<long long>(overload.shed_at_shutdown),
                  overload.MeanQueueWaitMs(), overload.max_queue_wait_ms);
      std::printf("    hedges=%lld hedge-wins=%lld primary-wins=%lld "
                  "unplaced=%lld breaker{opens=%lld half=%lld closes=%lld "
                  "rejected=%lld open-time=%.1fs} cap-rejected=%lld\n",
                  static_cast<long long>(overload.hedges_launched),
                  static_cast<long long>(overload.hedge_wins),
                  static_cast<long long>(overload.hedge_primary_wins),
                  static_cast<long long>(overload.hedges_unplaced),
                  static_cast<long long>(overload.breaker_opens),
                  static_cast<long long>(overload.breaker_half_opens),
                  static_cast<long long>(overload.breaker_closes),
                  static_cast<long long>(overload.breaker_rejections),
                  overload.total_breaker_open_ms / 1e3,
                  static_cast<long long>(overload.cap_rejections));
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv) ||
      (!flags.Has("trace") && !flags.Has("gen-apps")) || flags.Has("help")) {
    std::fprintf(
        stderr,
        "usage: policy_eval --trace DIR | --gen-apps N\n"
        "                   [--gen-days D=14] [--gen-seed S=42]\n"
        "                   [--gen-rate-cap R=8000]\n"
        "                   [--stream] [--shard-apps N=1024]\n"
        "                   [--max-resident-shards K=4]\n"
        "                   [--policies fixed-10,hybrid,...]\n"
        "                   [--range-minutes N=240] [--cv T=2]\n"
        "                   [--head P=5] [--tail P=99]\n"
        "                   [--use-exec-times] [--weight-by-memory]\n"
        "                   [--threads N=0 (0 = all cores)]\n"
        "                   [--skip-malformed]\n"
        "telemetry (sweep and chaos mode):\n"
        "                   [--trace-out FILE] [--metrics-out FILE]\n"
        "                   [--series-out FILE] [--metrics-interval D=60s]\n"
        "                   [--progress]\n"
        "chaos mode (cluster simulator with fault injection):\n"
        "                   [--faults SPEC | --mtbf H [--mttr M]\n"
        "                    [--wipe-mtbf H] [--fault-seed N]]\n"
        "                   [--invokers N=18] [--invoker-memory MB=4096]\n"
        "                   [--retries N] [--timeout D] [--backoff D]\n"
        "                   [--checkpoint D]\n"
        "overload control plane (also selects the cluster simulator):\n"
        "                   [--overload] [--admission-queue N]\n"
        "                   [--admission-discipline fifo|lifo|codel]\n"
        "                   [--queue-max-wait D] [--hedge D]\n"
        "                   [--hedge-percentile P] [--concurrency-cap N]\n"
        "                   [--breaker] [--breaker-window N]\n"
        "                   [--breaker-threshold F] [--breaker-open D]\n"
        "                   [--breaker-latency-ms X]\n"
        "cost accounting (chaos mode; the cost model also enables the\n"
        "faas_resource_* metric families):\n"
        "                   [--cost-gb-s X] [--cost-cpu-s X]\n"
        "                   [--cost-invoke X] [--resource-telemetry]\n"
        "network model (also selects the cluster simulator):\n"
        "                   [--net-latency MS] [--net-queue-cap N]\n"
        "                   [--net-loss P] [--net-partition I@AT+DUR,...]\n"
        "                   (I = invoker index or `all`; e.g. 3@10m+2m)\n"
        "flash crowds (burst trains injected into the loaded trace):\n"
        "                   [--flash-crowds N] [--flash-minutes M=10]\n"
        "                   [--flash-fraction F=0.3] [--flash-events E=80]\n"
        "                   [--flash-seed S=1234]\n");
    return flags.Has("help") ? 0 : 2;
  }

  const bool stream = flags.GetBool("stream", false);
  const bool gen_mode = flags.Has("gen-apps");
  if (gen_mode && flags.Has("trace")) {
    std::fprintf(stderr, "--trace and --gen-apps are mutually exclusive\n");
    return 2;
  }
  if (stream &&
      (flags.Has("faults") || flags.Has("mtbf") || HasOverloadFlags(flags) ||
       HasNetworkFlags(flags) ||
       flags.Has("trace-out") || flags.Has("metrics-out") ||
       flags.Has("series-out") || flags.GetBool("progress", false))) {
    std::fprintf(stderr,
                 "--stream supports only the plain policy sweep (no chaos/"
                 "overload mode, telemetry exports or --flash-crowds)\n");
    return 2;
  }

  GeneratorConfig gen_config;
  std::optional<WorkloadGenerator> generator;
  Trace trace;
  if (gen_mode) {
    if (flags.Has("flash-crowds")) {
      std::fprintf(stderr, "--flash-crowds requires --trace input\n");
      return 2;
    }
    gen_config.num_apps = static_cast<int>(flags.GetInt("gen-apps", 0));
    if (gen_config.num_apps <= 0) {
      std::fprintf(stderr, "--gen-apps must be positive\n");
      return 2;
    }
    gen_config.days = static_cast<int>(flags.GetInt("gen-days", 14));
    gen_config.seed = static_cast<uint64_t>(flags.GetInt("gen-seed", 42));
    gen_config.instants_rate_cap_per_day =
        flags.GetDouble("gen-rate-cap", 8000.0);
    gen_config.flash_crowd_count = 0;
    generator.emplace(gen_config);
    std::printf("generator: %d sampled apps, %d days, seed %llu, rate cap "
                "%.0f/day%s\n",
                gen_config.num_apps, gen_config.days,
                static_cast<unsigned long long>(gen_config.seed),
                gen_config.instants_rate_cap_per_day,
                stream ? " (streamed; full trace never materialized)" : "");
    if (!stream) {
      trace = generator->Generate();
    }
  } else {
    CsvReadOptions read_options;
    read_options.skip_malformed = flags.GetBool("skip-malformed", false);
    auto read = ReadTraceCsv(flags.GetString("trace", ""), read_options);
    if (!read.ok) {
      std::fprintf(stderr, "failed to read trace: %s\n", read.error.c_str());
      return 1;
    }
    for (const std::string& warning : read.warnings) {
      std::fprintf(stderr, "warning: skipped malformed row: %s\n",
                   warning.c_str());
    }
    if (flags.Has("flash-crowds")) {
      if (stream) {
        std::fprintf(stderr,
                     "--flash-crowds is incompatible with --stream\n");
        return 2;
      }
      FlashCrowdSpec spec;
      spec.count = static_cast<int>(flags.GetInt("flash-crowds", 0));
      if (spec.count <= 0) {
        std::fprintf(stderr, "--flash-crowds must be positive\n");
        return 2;
      }
      spec.duration =
          Duration::Minutes(flags.GetInt("flash-minutes", 10));
      spec.fraction = flags.GetDouble("flash-fraction", 0.3);
      spec.events_per_function = flags.GetDouble("flash-events", 80.0);
      const int64_t before = read.value.TotalInvocations();
      Rng crowd_rng(static_cast<uint64_t>(flags.GetInt("flash-seed", 1234)));
      // Adding invocation instants leaves the name-keyed entity index valid.
      ApplyFlashCrowd(read.value, spec, crowd_rng);
      std::printf("flash crowds: %d bursts, +%lld invocations\n", spec.count,
                  static_cast<long long>(read.value.TotalInvocations() -
                                         before));
    }
    trace = std::move(read.value);
  }
  if (!gen_mode || !stream) {
    std::printf(
        "trace: %zu apps, %lld functions, %lld invocations, %d days\n",
        trace.apps.size(), static_cast<long long>(trace.TotalFunctions()),
        static_cast<long long>(trace.TotalInvocations()),
        static_cast<int>(trace.horizon.days()));
  }

  HybridPolicyConfig hybrid;
  hybrid.num_bins = static_cast<int>(flags.GetInt("range-minutes", 240));
  hybrid.cv_threshold = flags.GetDouble("cv", 2.0);
  hybrid.head_percentile = flags.GetDouble("head", 5.0);
  hybrid.tail_percentile = flags.GetDouble("tail", 99.0);

  std::vector<std::unique_ptr<PolicyFactory>> owned;
  const std::string list =
      flags.GetString("policies", "fixed-10,fixed-60,hybrid");
  for (std::string_view name : SplitString(list, ',')) {
    name = StripWhitespace(name);
    if (name.empty()) {
      continue;
    }
    auto factory = MakeFactory(name, hybrid);
    if (factory == nullptr) {
      std::fprintf(stderr, "unknown policy '%.*s'\n",
                   static_cast<int>(name.size()), name.data());
      return 2;
    }
    owned.push_back(std::move(factory));
  }
  if (owned.empty()) {
    std::fprintf(stderr, "no policies requested\n");
    return 2;
  }

  SimulatorOptions options;
  options.use_execution_times = flags.GetBool("use-exec-times", false);
  options.weight_by_memory = flags.GetBool("weight-by-memory", false);
  options.num_threads = static_cast<int>(flags.GetInt("threads", 0));
  if (options.num_threads < 0) {
    std::fprintf(stderr, "--threads must be >= 0\n");
    return 2;
  }

  std::vector<const PolicyFactory*> factories;
  for (const auto& factory : owned) {
    factories.push_back(factory.get());
  }

  // Telemetry is constructed only when a flag asks for it; otherwise the
  // simulators run with null instrument pointers (the zero-cost path).
  // Each flag is read on its own line: a short-circuited Has() would leave
  // --series-out unread next to --metrics-out and fail CheckAllRead.
  const bool want_trace = flags.Has("trace-out");
  const bool want_series = flags.Has("series-out");
  const bool want_metrics = flags.Has("metrics-out") || want_series ||
                            flags.GetBool("progress", false);
  std::unique_ptr<Telemetry> telemetry;
  if (want_trace || want_metrics) {
    TelemetryConfig telemetry_config;
    telemetry_config.trace_enabled = want_trace;
    telemetry_config.metrics_enabled = want_metrics;
    telemetry = std::make_unique<Telemetry>(telemetry_config);
  }
  Duration metrics_interval = Duration::Seconds(60);
  if (const auto interval = GetDurationFlag(flags, "metrics-interval")) {
    metrics_interval = *interval;
  } else if (flags.Has("metrics-interval")) {
    return 2;
  }

#if defined(__unix__) || defined(__APPLE__)
  std::optional<SignalFlushGuard> signal_guard;
  if (flags.GetBool("progress", false) && telemetry != nullptr) {
    signal_guard.emplace(flags, telemetry.get());
  }
#endif

  const bool has_cost_flags =
      flags.Has("cost-gb-s") || flags.Has("cost-cpu-s") ||
      flags.Has("cost-invoke") || flags.Has("resource-telemetry");
  if (flags.Has("faults") || flags.Has("mtbf") || HasOverloadFlags(flags) ||
      HasNetworkFlags(flags) || has_cost_flags) {
    const int status = RunChaosEvaluation(flags, trace, factories,
                                          telemetry.get(), metrics_interval);
    if (status != 0) {
      return status;
    }
    PrintPeakRss();
    return WriteTelemetryOutputs(flags, telemetry.get());
  }

  int shard_apps = 0;
  int max_resident = 0;
  if (stream) {
    shard_apps = static_cast<int>(flags.GetInt("shard-apps", 1024));
    max_resident = static_cast<int>(flags.GetInt(
        "max-resident-shards", StreamingSweepOptions{}.max_resident_shards));
    if (shard_apps <= 0 || max_resident <= 0) {
      std::fprintf(stderr,
                   "--shard-apps and --max-resident-shards must be "
                   "positive\n");
      return 2;
    }
  }
  if (!flags.CheckAllRead()) {
    return 2;
  }
  std::vector<PolicyPoint> points;
  if (stream) {
    std::unique_ptr<ShardSource> source;
    if (gen_mode) {
      source = std::make_unique<GeneratorShardSource>(*generator, shard_apps);
    } else {
      source = std::make_unique<TraceShardSource>(trace, shard_apps);
    }
    StreamingSweepOptions stream_options;
    stream_options.max_resident_shards = max_resident;
    std::printf("streaming sweep: %d shards of %d apps, <=%d resident\n",
                source->num_shards(), shard_apps, max_resident);
    points = EvaluatePoliciesStreamed(*source, factories,
                                      /*baseline_index=*/0, options,
                                      stream_options);
    if (!points.empty()) {
      std::printf("streamed: %zu surviving apps, %lld invocations\n",
                  points[0].result.apps.size(),
                  static_cast<long long>(points[0].result.TotalInvocations()));
    }
  } else {
    options.telemetry = telemetry.get();
    const ProgressHeartbeat heartbeat(
        flags.GetBool("progress", false) && telemetry != nullptr &&
                telemetry->metrics_enabled()
            ? &telemetry->metrics()
            : nullptr,
        "faas_sim_apps_total", "apps",
        static_cast<int64_t>(trace.apps.size() * factories.size()));
    points = EvaluatePolicies(trace, factories, /*baseline_index=*/0, options);
  }
  if (const int status = WriteTelemetryOutputs(flags, telemetry.get());
      status != 0) {
    return status;
  }

  std::printf("\n%-44s %10s %10s %12s %18s\n", "policy", "cold p50",
              "cold p75", "always-cold", "waste vs first");
  for (const PolicyPoint& point : points) {
    std::printf("%-44s %9.1f%% %9.1f%% %11.1f%% %17.1f%%\n",
                point.name.c_str(),
                point.result.AppColdStartPercentile(50.0),
                point.cold_start_p75,
                100.0 * point.result.FractionAppsAlwaysCold(false),
                point.normalized_wasted_memory_pct);
  }
  PrintPeakRss();
  return 0;
}
