// Shared plumbing for the repository benchmark: clocks, process resource
// readings, the output digest, span recording, and the result record every
// workload fills in.
//
// Nothing here reaches into a library's internals: every layer number the
// benchmark reports comes from timing calls into public functions from the
// benchmark's own files (see layers.h).

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

namespace perfbench {

// ---- clocks and process readings ------------------------------------------

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

// Process high-water resident set size, MB (monotone over the process).
double PeakRssMb();
// User + system CPU seconds of every thread of the process so far.
double ProcessCpuSeconds();

double Median(std::vector<double> values);
// Percentile by nearest rank over a copy of `values`; 0 when empty.
double PercentileOf(std::vector<double> values, double pct);

// ---- CPU placement --------------------------------------------------------

// Pins the calling thread, for the lifetime of a scope, to one CPU of the
// set the process started with: the `turn`-th, modulo the set's size.  On
// the VM the benchmark was tuned on, one vCPU at a time ran a single
// thread about 25 % slower than the others, for minutes; a single-threaded
// run that stayed where the scheduler put it read that one CPU's speed, so
// its figures split into a fast and a slow group across runs.  Taking the
// next CPU for every pass makes every run sample every CPU alike.  Restores
// the thread's previous set on exit; a no-op on a single CPU.
class ScopedCpuPin {
 public:
  explicit ScopedCpuPin(int turn);
  ~ScopedCpuPin();
  ScopedCpuPin(const ScopedCpuPin&) = delete;
  ScopedCpuPin& operator=(const ScopedCpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

// ---- output digest --------------------------------------------------------

// FNV-1a over the exact bytes of every value added, so two digests agree
// only when every hashed number is bit-identical.
class Digest {
 public:
  template <class T>
  void Add(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      state_ = (state_ ^ b) * 0x100000001b3ull;
    }
  }
  void Add(const std::string& text) {
    for (char c : text) Add(c);
    Add(static_cast<uint64_t>(text.size()));
  }
  // Hashes every field of a ledger that declares VisitMergeFields (the
  // repo's ResourceLedger, FaultLedger and OverloadLedger all do).
  template <class L>
  void AddLedger(const L& ledger) {
    Visitor<L> visitor{this, &ledger};
    L::VisitMergeFields(visitor);
  }
  std::string Hex() const;

 private:
  template <class L>
  struct Visitor {
    Digest* digest;
    const L* ledger;
    template <class T>
    void Sum(T L::*field) {
      digest->Add(ledger->*field);
    }
    template <class T>
    void Max(T L::*field) {
      digest->Add(ledger->*field);
    }
    template <class T, unsigned long N>
    void SumArray(T (L::*field)[N]) {
      for (unsigned long i = 0; i < N; ++i) digest->Add((ledger->*field)[i]);
    }
  };
  uint64_t state_ = 0xcbf29ce484222325ull;
};

// ---- spans ---------------------------------------------------------------

// In-memory span log for the traced run: one span per phase, pass and
// shard (never one per call), written as Chrome trace JSON at the end.
// Thread-safe; spans are appended when they close.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int64_t id = 0;
    int64_t parent = 0;  // 0 = root.
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t tid = 0;
  };

  // Opens a span and returns its id; Close stamps its end.
  int64_t Open(const std::string& name, int64_t parent);
  void Close(int64_t id);
  // Records an already-measured interval.
  int64_t Add(const std::string& name, int64_t parent, int64_t start_ns,
              int64_t end_ns);

  size_t size() const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::map<int64_t, size_t> open_;  // id -> index; guarded by mu_
  int64_t next_id_ = 1;  // guarded by mu_
};

// Opens a span for the lifetime of a scope when `log` is non-null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, int64_t parent = 0)
      : log_(log), id_(log != nullptr ? log->Open(name, parent) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  SpanLog* log_;
  int64_t id_;
};

// ---- run options and result ----------------------------------------------

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Shrinks every workload to a few-second smoke run (self-tests).
  bool smoke = false;
  // Where the traced run writes its Chrome trace ("" = nowhere).
  std::string trace_path;
  // Expected output digest for this (workload, seed), "" = none kept.
  std::string reference_digest;
  // Frozen open-loop rates for serve-open, requests/s.
  double serve_lo_rps = 0.0;
  double serve_hi_rps = 0.0;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  // Every correctness and engagement check that failed, human readable.
  std::vector<std::string> errors;
  // The workload's output digest (replay workloads), "" otherwise.
  std::string digest;
  std::map<std::string, Metric> metrics;
  // Workload-specific figures outside BENCHMARK.json (the detail line).
  std::map<std::string, Metric> detail;
  // Free-form facts for the provenance line (sample counts, sizes).
  std::map<std::string, std::string> notes;

  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Detail(const std::string& name, double value, const std::string& unit) {
    detail[name] = {value, unit};
  }
};

// Every per-layer metric name with its unit.  A traced run reports all of
// them on every workload; a layer the workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

// Sets every per-layer metric that `result` has not set to 0.
void FillUnsetPerLayer(RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
