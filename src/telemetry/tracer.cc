#include "src/telemetry/tracer.h"

#include <algorithm>
#include <iterator>
#include <tuple>

#include "src/common/logging.h"

namespace faas {

const char* SpanNameString(SpanName name) {
  // Indexed by SpanName; keep in enum order.
  static constexpr const char* kNames[] = {
      "activation", "backoff", "retry", "timeout", "abandon", "drop",
      "reject_outage", "lost", "policy_wipe", "checkpoint", "cold_load",
      "warm_hit", "prewarm_load", "execute", "eviction", "transient_fault",
      "invoker_crash", "invoker_restart", "outage", "latency_spike",
      "flaky_window", "admission_queue", "shed", "hedge",
      "breaker_transition", "net_partition", "net_loss_window", "net_drop",
      "net_retransmit", "net_duplicate", "rpc_give_up", "app_replay",
      "resource_cost",
  };
  static_assert(std::size(kNames) ==
                static_cast<size_t>(SpanName::kNumSpanNames));
  const auto index = static_cast<size_t>(name);
  return index < std::size(kNames) ? kNames[index] : "unknown";
}

int32_t Tracer::InternLabel(std::string_view label) {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int32_t>(labels_.Intern(label));
}

void Tracer::RegisterProcess(int16_t pid, std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [existing_pid, existing_name] : processes_) {
    if (existing_pid == pid) {
      existing_name = std::move(name);
      return;
    }
  }
  processes_.emplace_back(pid, std::move(name));
}

void Tracer::RegisterThread(int16_t pid, int32_t tid, std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, existing_name] : threads_) {
    if (key.first == pid && key.second == tid) {
      existing_name = std::move(name);
      return;
    }
  }
  threads_.emplace_back(std::make_pair(pid, tid), std::move(name));
}

void Tracer::Fold(SpanBuffer& spans) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), spans.begin(), spans.end());
  spans.clear();
}

CollectedTrace Tracer::Collect() const {
  CollectedTrace trace;
  std::lock_guard<std::mutex> lock(mu_);

  // Canonicalise labels: sorted lexicographically, spans remapped, so the
  // result does not depend on which thread interned what first.
  std::vector<size_t> order(labels_.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return labels_.NameOf(static_cast<uint32_t>(a)) <
           labels_.NameOf(static_cast<uint32_t>(b));
  });
  std::vector<int32_t> remap(labels_.size(), -1);
  trace.labels.reserve(labels_.size());
  for (size_t rank = 0; rank < order.size(); ++rank) {
    remap[order[rank]] = static_cast<int32_t>(rank);
    trace.labels.push_back(labels_.NameOf(static_cast<uint32_t>(order[rank])));
  }

  trace.spans = spans_;
  for (SpanRecord& span : trace.spans) {
    if (span.label_id >= 0) {
      FAAS_CHECK(static_cast<size_t>(span.label_id) < remap.size())
          << "span references an unknown label";
      span.label_id = remap[static_cast<size_t>(span.label_id)];
    }
  }
  // Canonical order.  Every key is either simulation state or a remapped
  // (string-ordered) id, so the sort is independent of fold order.
  std::sort(trace.spans.begin(), trace.spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return std::tie(a.pid, a.start_ms, a.trace_id, a.name, a.tid,
                              a.label_id, a.dur_ms, a.arg0, a.arg1) <
                     std::tie(b.pid, b.start_ms, b.trace_id, b.name, b.tid,
                              b.label_id, b.dur_ms, b.arg0, b.arg1);
            });

  trace.processes = processes_;
  std::sort(trace.processes.begin(), trace.processes.end());
  trace.threads = threads_;
  std::sort(trace.threads.begin(), trace.threads.end());
  return trace;
}

size_t Tracer::num_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

}  // namespace faas
