#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

namespace perfbench {

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double ProcessCpuSeconds() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PercentileOf(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::ceil(pct / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

namespace {

// The CPUs the process may run on, read before any thread is pinned.
std::vector<int> ReadStartupCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

const std::vector<int> kStartupCpus = ReadStartupCpus();

}  // namespace

ScopedCpuPin::ScopedCpuPin(int turn) {
  CPU_ZERO(&saved_);
  if (kStartupCpus.size() < 2 ||
      sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(kStartupCpus[static_cast<size_t>(turn) % kStartupCpus.size()], &one);
  pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
}

ScopedCpuPin::~ScopedCpuPin() {
  if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, state_);
  return buf;
}

namespace {

// Chrome-trace lane for the calling thread.
int64_t ThreadLane() {
  return static_cast<int64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 1000);
}

}  // namespace

int64_t SpanLog::Open(const std::string& name, int64_t parent) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.id = next_id_++;
  span.parent = parent;
  span.start_ns = now;
  span.end_ns = now;
  span.tid = ThreadLane();
  open_[span.id] = spans_.size();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::Close(int64_t id) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = open_.find(id);
  if (it == open_.end()) return;
  spans_[it->second].end_ns = now;
  open_.erase(it);
}

int64_t SpanLog::Add(const std::string& name, int64_t parent,
                     int64_t start_ns, int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.id = next_id_++;
  span.parent = parent;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.tid = ThreadLane();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  int64_t origin = 0;
  for (const Span& span : spans_) {
    if (origin == 0 || span.start_ns < origin) origin = span.start_ns;
  }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%" PRId64
                  ",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%" PRId64
                  ",\"parent\":%" PRId64 "}}",
                  i == 0 ? "" : ",", span.name.c_str(), span.tid,
                  static_cast<double>(span.start_ns - origin) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                  span.id, span.parent);
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"trace_overhead_pct", "pct"},
      {"workload.plan_s", "s"},
      {"workload.generate_s", "s"},
      {"workload.generated_inv", "count"},
      {"sim.compile_s", "s"},
      {"sim.replay_s", "s"},
      {"sim.replay_direct_s", "s"},
      {"sim.stage_sum_error_pct", "pct"},
      {"policy.record_calls", "count"},
      {"policy.record_s", "s"},
      {"policy.decide_calls", "count"},
      {"policy.decide_s", "s"},
      {"policy.decide_histogram_calls", "count"},
      {"policy.decide_histogram_s", "s"},
      {"policy.decide_standard_calls", "count"},
      {"policy.decide_standard_s", "s"},
      {"policy.decide_arima_calls", "count"},
      {"policy.decide_arima_s", "s"},
      {"pool.cpu_s", "s"},
      {"pool.idle_s", "s"},
      {"pool.parallel_efficiency", "ratio"},
      {"cluster.self_s", "s"},
      {"cluster.policy_overhead_us_mean", "us"},
      {"cluster.net_messages", "count"},
      {"cluster.messages_per_inv", "ratio"},
      {"cluster.rpc_retransmits", "count"},
      {"cluster.admission_queued", "count"},
      {"cluster.admission_shed", "count"},
      {"cluster.evictions", "count"},
      {"cluster.prewarm_loads", "count"},
      {"serve.client.late_ms_p99", "ms"},
      {"serve.server.p50_ms", "ms"},
      {"serve.server.p99_ms", "ms"},
      {"serve.outside_ms_p50", "ms"},
      {"serve.bridge.queue_wait_ms_mean", "ms"},
      {"serve.bridge.warm_ratio", "ratio"},
      {"serve.bridge.evictions", "count"},
      {"serve.wire.decode_ns", "ns"},
      {"serve.bridge.admit_ns", "ns"},
      {"serve.timer_wheel.advance_ns", "ns"},
      {"serve.wire.encode_ns", "ns"},
  };
  return kMetrics;
}

void FillUnsetPerLayer(RunResult& result) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    if (result.metrics.count(name) == 0) result.Set(name, 0.0, unit);
  }
}

}  // namespace perfbench
