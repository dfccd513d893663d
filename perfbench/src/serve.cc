// serve-open: an in-process ServeServer driven over loopback by the
// benchmark's own single-threaded open-loop Poisson client.
//
// The client stamps every request with the instant it was DUE (its
// request_id is the scheduled CLOCK_MONOTONIC time), so a stall in the
// client or the server delays the clock of every request behind it and
// shows in the latency; how late the client itself ran is reported
// separately.  LoadGenerator, used here only for the blast phase, stamps
// the actual send instant and batches overdue arrivals instead, so its
// paced latencies hide generator stalls (see README.md).
//
// Phases: warm-up, fixed rates lo and hi, a rate search for the latency
// limit, and a LoadGenerator blast for ingest throughput.

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "common.h"
#include "layers.h"
#include "src/common/cpu_topology.h"
#include "src/serve/bridge.h"
#include "src/serve/clock.h"
#include "src/serve/loadgen.h"
#include "src/serve/server.h"
#include "src/serve/timer_wheel.h"
#include "src/serve/wire.h"
#include "src/telemetry/latency_recorder.h"
#include "src/workload/generator.h"
#include "workloads.h"

namespace perfbench {

using namespace faas;

namespace {

constexpr int kSetups = 3;
// Socket blasts per run (their median is serve_ingest_rps), and socketless
// passes after each blast (their median over the run is the ingest figure,
// throughput_per_s).
constexpr int kBlasts = 5;
constexpr int kSocketlessPassesPerBlast = 2;
constexpr int kConnections = 2;
// Function population.  Each function's weight is a daily invocation rate
// drawn from the paper-calibrated rate model (Fig. 5), so the few hot
// functions stay warm and the long tail expires and cold-starts.  The
// population seed is fixed, so every --seed offers the same mix; --seed
// assigns the ids and draws the arrivals.
constexpr uint32_t kFunctions = 256;
constexpr uint64_t kServePopulationSeed = 20190715;
// The paper's skew anchor: the top 18.6 % of functions carry 99.6 % of
// invocations.
constexpr double kTopShareFraction = 0.186;
// Latency limit of the rate search and the client-limit guard.
constexpr double kLimitP99Ms = 1.0;
constexpr double kLimitFailPct = 0.1;
constexpr double kClientLateP99Ms = 0.1;

ServeConfig MakeServeConfig() {
  ServeConfig config;
  config.num_loops = 2;
  // Loops are pinned (and the client below): left to the scheduler, a loop
  // and the client thread sometimes share one CPU, which halved ingest in
  // about one run in three.
  config.pin_loops = true;
  config.bridge.num_executors = 4;
  config.bridge.service_time_us = 200;
  config.bridge.cold_start_us = 2'000;
  config.bridge.keep_alive_ms = 1'000;
  config.bridge.num_functions_hint = kFunctions;
  config.bridge.overload.admission.capacity = 1024;
  config.bridge.overload.admission.discipline = AdmissionDiscipline::kFifo;
  config.bridge.overload.invoker_concurrency_cap = 0;
  return config;
}

// The blast phase's server: the same admission plane on one loop with zero
// service time, so every admitted request completes inline and ingest is
// bounded by decode, admit, encode and flush alone (as bench_serving's
// ingest server).  One loop, because SO_REUSEPORT hashes the blast's two
// connections onto the same loop in half the runs, which would make the
// figure bimodal.
ServeConfig MakeIngestConfig() {
  ServeConfig config = MakeServeConfig();
  config.num_loops = 1;
  config.bridge.service_time_us = 0;
  config.bridge.cold_start_us = 0;
  return config;
}

// Pins the calling (client) thread to the last CPU of the interleaved order,
// away from the loops, which take the first ones.  No-op below 3 CPUs.
void PinClientThread() {
  const std::vector<int> cpus = CpuTopology::Detect().InterleavedCpus();
  if (cpus.size() < 3) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus.back(), &set);
  sched_setaffinity(0, sizeof(set), &set);
}

// Seeded popularity over kFunctions ids, weighted by the rate model.
class Popularity {
 public:
  explicit Popularity(uint64_t seed) : ids_(kFunctions), cdf_(kFunctions) {
    std::iota(ids_.begin(), ids_.end(), 0u);
    std::mt19937_64 shuffle(seed ^ 0xF00DFACEull);
    std::shuffle(ids_.begin(), ids_.end(), shuffle);
    GeneratorConfig population;
    population.seed = kServePopulationSeed;
    std::vector<double> rates =
        WorkloadGenerator(population).SampleDailyRates(kFunctions);
    std::sort(rates.begin(), rates.end(), std::greater<double>());
    const size_t top = static_cast<size_t>(
        std::ceil(kTopShareFraction * static_cast<double>(kFunctions)));
    double total = 0.0;
    for (uint32_t rank = 0; rank < kFunctions; ++rank) {
      total += rates[rank];
      cdf_[rank] = total;
    }
    for (double& c : cdf_) c /= total;
    top_share_ = cdf_[top - 1];
  }
  uint32_t Draw(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return ids_[std::min<size_t>(rank, kFunctions - 1)];
  }
  // Share of the invocations the top kTopShareFraction of functions carry.
  double top_share() const { return top_share_; }

 private:
  std::vector<uint32_t> ids_;
  std::vector<double> cdf_;
  double top_share_ = 0.0;
};

// The arrival sequence of one phase: Poisson at `rate`, skewed functions.
class Schedule {
 public:
  Schedule(const Popularity& popularity, double rate, uint64_t seed)
      : popularity_(popularity), rng_(seed), gap_(rate / 1e9) {}
  // Next arrival as an offset from the phase start, ns.
  int64_t NextOffsetNs(uint32_t* function_id) {
    offset_ns_ += gap_(rng_);
    *function_id = popularity_.Draw(rng_);
    return static_cast<int64_t>(offset_ns_);
  }

 private:
  const Popularity& popularity_;
  std::mt19937_64 rng_;
  std::exponential_distribution<double> gap_;
  double offset_ns_ = 0.0;
};

struct PhaseStats {
  double rate = 0.0;
  int64_t sent = 0;
  int64_t replies = 0;
  int64_t ok = 0;
  int64_t warm = 0;
  int64_t cold = 0;
  int64_t unanswered_at_window_end = 0;
  LatencyRecorder latency;   // Reply receipt - due time, ok replies.
  LatencyRecorder lateness;  // Send - due time, every request.
  LatencyRecorder outside;   // Latency minus the server's own latency_us.

  int64_t failed() const { return sent - ok; }
  double fail_pct() const {
    return sent > 0 ? 100.0 * static_cast<double>(failed()) /
                          static_cast<double>(sent)
                    : 0.0;
  }
};

class OpenLoopClient {
 public:
  ~OpenLoopClient() {
    for (Conn& conn : conns_) {
      if (conn.fd >= 0) close(conn.fd);
    }
  }

  bool Connect(uint16_t port, std::string* error) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    conns_.resize(kConnections);
    for (Conn& conn : conns_) {
      conn.fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (conn.fd < 0 ||
          connect(conn.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
              0) {
        *error = std::string("connect: ") + std::strerror(errno);
        return false;
      }
      const int one = 1;
      setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      const int flags = fcntl(conn.fd, F_GETFL, 0);
      if (flags < 0 || fcntl(conn.fd, F_SETFL, flags | O_NONBLOCK) != 0) {
        *error = "fcntl O_NONBLOCK failed";
        return false;
      }
    }
    read_buf_.resize(256 * 1024);
    return true;
  }

  // Offers `schedule` for `seconds`, then waits (bounded) for the replies.
  PhaseStats Run(Schedule& schedule, double rate, double seconds) {
    PhaseStats stats;
    stats.rate = rate;
    current_ = &stats;
    const int64_t start = MonotonicNowNs();
    phase_start_ns_ = start;
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    uint32_t function_id = 0;
    int64_t due = start + schedule.NextOffsetNs(&function_id);
    size_t rr = 0;
    uint8_t frame[kWireHeaderSize];
    for (;;) {
      const int64_t now = MonotonicNowNs();
      if (now >= end) break;
      while (due <= now && due < end) {
        RequestFrame request;
        request.request_id = static_cast<uint64_t>(due);
        request.function_id = function_id;
        EncodeRequestTo(request, frame);
        Conn& conn = conns_[rr];
        rr = (rr + 1) % conns_.size();
        conn.out.insert(conn.out.end(), frame, frame + kWireHeaderSize);
        stats.lateness.Record(now - due);
        ++stats.sent;
        due = start + schedule.NextOffsetNs(&function_id);
      }
      Pump();
    }
    stats.unanswered_at_window_end = stats.sent - stats.replies;
    const int64_t drain_end = MonotonicNowNs() + 1'000'000'000;
    while (stats.replies < stats.sent && MonotonicNowNs() < drain_end) Pump();
    current_ = nullptr;
    return stats;
  }

 private:
  struct Conn {
    int fd = -1;
    std::vector<uint8_t> out;
    size_t out_pos = 0;
    FrameDecoder decoder;
  };

  // One non-blocking write and read per connection.
  void Pump() {
    for (Conn& conn : conns_) {
      if (conn.out_pos < conn.out.size()) {
        const ssize_t n = write(conn.fd, conn.out.data() + conn.out_pos,
                                conn.out.size() - conn.out_pos);
        if (n > 0) conn.out_pos += static_cast<size_t>(n);
        if (conn.out_pos == conn.out.size()) {
          conn.out.clear();
          conn.out_pos = 0;
        }
      }
      const ssize_t n = read(conn.fd, read_buf_.data(), read_buf_.size());
      if (n <= 0) continue;
      const int64_t now = MonotonicNowNs();
      conn.decoder.Push(read_buf_.data(), static_cast<size_t>(n));
      DecodedFrame decoded;
      while (conn.decoder.Next(&decoded) == FrameDecoder::Result::kFrame) {
        if (decoded.type != FrameType::kReply || current_ == nullptr) continue;
        OnReply(decoded.reply, now);
      }
    }
  }

  void OnReply(const ReplyFrame& reply, int64_t now) {
    // A straggler from an earlier phase's timed-out drain is not ours.
    if (static_cast<int64_t>(reply.request_id) < phase_start_ns_) return;
    PhaseStats& stats = *current_;
    ++stats.replies;
    if (reply.status != ReplyStatus::kOk) return;
    ++stats.ok;
    if (reply.latency_class == LatencyClass::kWarm) ++stats.warm;
    if (reply.latency_class == LatencyClass::kCold) ++stats.cold;
    const int64_t latency = now - static_cast<int64_t>(reply.request_id);
    stats.latency.Record(latency);
    stats.outside.Record(latency -
                         static_cast<int64_t>(reply.latency_us) * 1000);
  }

  std::vector<Conn> conns_;
  std::vector<uint8_t> read_buf_;
  PhaseStats* current_ = nullptr;
  int64_t phase_start_ns_ = 0;
};

// Percentile of the samples recorded between two snapshots of one
// cumulative recorder, at bucket resolution.
double DeltaPercentileMs(const LatencyRecorder& before,
                         const LatencyRecorder& after, double pct) {
  std::map<int64_t, std::pair<int64_t, int64_t>> buckets;  // lo -> (hi, n)
  for (const auto& b : after.NonZeroBuckets()) {
    buckets[b.lo_ns] = {b.hi_ns, b.count};
  }
  for (const auto& b : before.NonZeroBuckets()) {
    buckets[b.lo_ns].second -= b.count;
  }
  int64_t total = 0;
  for (const auto& [lo, bucket] : buckets) total += bucket.second;
  if (total <= 0) return 0.0;
  const int64_t target = std::max<int64_t>(
      1, static_cast<int64_t>(
             std::ceil(pct / 100.0 * static_cast<double>(total))));
  int64_t seen = 0;
  for (const auto& [lo, bucket] : buckets) {
    seen += bucket.second;
    if (seen >= target) {
      return 0.5 * static_cast<double>(lo + bucket.first) / 1e6;
    }
  }
  return 0.0;
}

// The warm pool must have seen hits, cold starts and expiries, over a
// clean protocol.
void CheckEngaged(const ServeStats& stats, RunResult& result) {
  result.Check(stats.protocol_errors == 0, "server saw protocol errors");
  result.Check(stats.bridge.served_warm > 0, "no warm hits");
  result.Check(stats.bridge.served_cold > 0, "no cold starts");
  result.Check(stats.bridge.evictions > 0, "no keep-alive evictions");
}

bool MeetsLimit(const PhaseStats& stats) {
  const bool backlog_flat =
      static_cast<double>(stats.unanswered_at_window_end) <=
      std::max(64.0, stats.rate * 0.005);  // <= 5 ms of arrivals in flight
  return stats.latency.PercentileMs(99.0) <= kLimitP99Ms &&
         stats.fail_pct() <= kLimitFailPct && backlog_flat &&
         stats.lateness.PercentileMs(99.0) < kClientLateP99Ms;
}

// Per-request costs of one socketless pass (see Socketless).
struct SocketlessCosts {
  size_t requests = 0;
  size_t replies = 0;
  size_t warm = 0;
  size_t cold = 0;
  double decode_ns = 0.0;
  double admit_ns = 0.0;    // Per-call timing only.
  double advance_ns = 0.0;  // Per-call timing only.
  double encode_ns = 0.0;
  double total_ns = 0.0;  // Decode + admission + drain + encode.

  double IngestPerSecond() const {
    return total_ns > 0.0 ? static_cast<double>(requests) * 1e9 / total_ns
                          : 0.0;
  }
};

// Pushes the hi request sequence through the serve plane's public calls on
// this thread with a synthetic clock, one 256 KB read at a time as the
// server's loop sees it: FrameDecoder over the read, then
// TimerWheel::Advance + AdmissionBridge::OnRequest per request, then
// EncodeReplyTo per reply into an out buffer.  The bridge runs the ingest
// configuration: with zero service time every request completes inside
// OnRequest on the synthetic clock and no timer is armed, so no callback
// reads the real clock and the warm/cold mix depends only on the sequence,
// not on how fast the host ran the loop.  With `per_call` each Advance and
// OnRequest is timed on its own (the traced run); without, only the stages
// are (the ingest figure).
SocketlessCosts Socketless(const Popularity& popularity, double rate,
                           double seconds, uint64_t seed, bool per_call) {
  const ServeConfig config = MakeIngestConfig();
  Schedule schedule(popularity, rate, seed);
  const size_t count = static_cast<size_t>(rate * seconds);
  std::vector<int64_t> due(count);
  std::vector<uint8_t> wire(count * kWireHeaderSize);
  for (size_t i = 0; i < count; ++i) {
    RequestFrame request;
    due[i] = schedule.NextOffsetNs(&request.function_id);
    request.request_id = i;
    EncodeRequestTo(request, wire.data() + i * kWireHeaderSize);
  }
  SocketlessCosts costs;

  struct Sink {
    std::vector<ReplyFrame> replies;
  } sink;
  TimerWheel wheel(config.wheel_tick_ns, config.wheel_slots);
  AdmissionBridge bridge(
      config.bridge, &wheel,
      [](void* ctx, uint64_t, const ReplyFrame& reply) {
        static_cast<Sink*>(ctx)->replies.push_back(reply);
      },
      &sink);
  bridge.StartClock(due.empty() ? 0 : due[0]);
  constexpr size_t kChunk = 256 * 1024;
  std::vector<RequestFrame> requests;
  requests.reserve(kChunk / kWireHeaderSize + 1);
  sink.replies.reserve(kChunk / kWireHeaderSize + 1);
  std::vector<uint8_t> out;
  FrameDecoder decoder;
  const double clock_read = ClockReadCostNs();
  double admission_ns = 0.0;
  size_t next = 0;  // Index of the next request into `due`.
  // Encodes the replies gathered so far into `out`, counting their kinds.
  auto encode = [&] {
    out.resize(sink.replies.size() * kWireHeaderSize);
    const int64_t start = NowNs();
    for (size_t i = 0; i < sink.replies.size(); ++i) {
      EncodeReplyTo(sink.replies[i], out.data() + i * kWireHeaderSize);
    }
    costs.encode_ns += static_cast<double>(NowNs() - start);
    for (const ReplyFrame& reply : sink.replies) {
      if (reply.latency_class == LatencyClass::kWarm) ++costs.warm;
      if (reply.latency_class == LatencyClass::kCold) ++costs.cold;
    }
    costs.replies += sink.replies.size();
    sink.replies.clear();
  };
  for (size_t off = 0; off < wire.size(); off += kChunk) {
    requests.clear();
    int64_t start = NowNs();
    decoder.Push(wire.data() + off, std::min(kChunk, wire.size() - off));
    DecodedFrame frame;
    while (decoder.Next(&frame) == FrameDecoder::Result::kFrame) {
      requests.push_back(frame.request);
    }
    costs.decode_ns += static_cast<double>(NowNs() - start);
    costs.requests += requests.size();

    start = NowNs();
    for (const RequestFrame& request : requests) {
      const int64_t now = due[next++];
      if (!per_call) {
        wheel.Advance(now);
        bridge.OnRequest(/*conn_token=*/0, request, now);
        continue;
      }
      const int64_t t0 = NowNs();
      wheel.Advance(now);
      const int64_t t1 = NowNs();
      bridge.OnRequest(/*conn_token=*/0, request, now);
      const int64_t t2 = NowNs();
      costs.advance_ns +=
          std::max(0.0, static_cast<double>(t1 - t0) - clock_read);
      costs.admit_ns +=
          std::max(0.0, static_cast<double>(t2 - t1) - clock_read);
    }
    admission_ns += static_cast<double>(NowNs() - start);
    encode();
  }
  const int64_t start = NowNs();
  int64_t now = due.empty() ? 0 : due.back();
  bridge.Drain(now);
  for (int i = 0;
       i < 1'000'000 && (bridge.inflight() > 0 || wheel.pending() > 0); ++i) {
    now += config.wheel_tick_ns;
    wheel.Advance(now);
  }
  admission_ns += static_cast<double>(NowNs() - start);
  encode();

  costs.total_ns = costs.decode_ns + admission_ns + costs.encode_ns;
  return costs;
}

// Every frame decoded and answered once, warm or cold, with both kinds
// present; and, the clock being synthetic, the same warm/cold split as the
// `first` pass of the run.
void CheckSocketless(const SocketlessCosts& costs,
                     const SocketlessCosts& first, size_t expected,
                     RunResult& result) {
  result.Check(costs.requests == expected, "socketless decode lost frames");
  result.Check(costs.replies == expected,
               "socketless bridge replied " + std::to_string(costs.replies) +
                   " times to " + std::to_string(expected) + " requests");
  result.Check(costs.warm + costs.cold == costs.replies,
               "socketless replies neither warm nor cold");
  result.Check(costs.warm > 0 && costs.cold > 0,
               "socketless pass saw no warm hits or no cold starts");
  result.Check(costs.warm == first.warm && costs.cold == first.cold,
               "socketless warm/cold split differs between passes: " +
                   std::to_string(costs.warm) + "/" +
                   std::to_string(costs.cold) + " vs " +
                   std::to_string(first.warm) + "/" +
                   std::to_string(first.cold));
}

}  // namespace

RunResult RunServeOpen(const RunOptions& options) {
  RunResult result;
  const ServeConfig config = MakeServeConfig();
  const double lo_rps = options.serve_lo_rps;
  const double hi_rps = options.serve_hi_rps;
  const double s = options.seconds;
  // Phase lengths as shares of the run.
  const double warm_s = 0.05 * s, lo_s = 0.15 * s, hi_s = 0.25 * s,
               search_step_s = 0.06 * s, blast_s = 0.12 * s;
  constexpr int kSearchSteps = 5;
  const uint64_t socketless_seed = options.seed * 1000003ull + 3;
  const size_t hi_requests = static_cast<size_t>(hi_rps * hi_s);

  // Set-up: popularity table, both servers started, the client connected,
  // and a warm-up at the lo rate that fills the warm pools.
  std::unique_ptr<Popularity> popularity;
  std::unique_ptr<ServeServer> server;
  std::unique_ptr<ServeServer> ingest;
  std::unique_ptr<OpenLoopClient> client;
  std::vector<double> setups;
  std::string error;
  PinClientThread();
  for (int i = 0; i < kSetups; ++i) {
    client.reset();
    if (server) server->Stop();
    if (ingest) ingest->Stop();
    const int64_t start = NowNs();
    popularity = std::make_unique<Popularity>(options.seed);
    server = std::make_unique<ServeServer>(config);
    ingest = std::make_unique<ServeServer>(MakeIngestConfig());
    client = std::make_unique<OpenLoopClient>();
    if (!server->Start(&error) || !ingest->Start(&error) ||
        !client->Connect(server->port(), &error)) {
      result.Check(false, "serve set-up failed: " + error);
      return result;
    }
    Schedule warmup(*popularity, lo_rps, options.seed * 1000003ull + 1);
    client->Run(warmup, lo_rps, warm_s);
    setups.push_back(SecondsSince(start));
  }

  auto phase = [&](double rate, double seconds, uint64_t stream) {
    Schedule schedule(*popularity, rate, options.seed * 1000003ull + stream);
    return client->Run(schedule, rate, seconds);
  };

  SpanLog spans;
  SpanLog* log = options.trace ? &spans : nullptr;
  PhaseStats lo, hi;
  {
    const ScopedSpan span(log, "serve.lo");
    lo = phase(lo_rps, lo_s, 2);
  }
  const ServeStats before_hi = server->Snapshot();
  {
    const ScopedSpan span(log, "serve.hi");
    hi = phase(hi_rps, hi_s, 3);
  }
  const ServeStats after_hi = server->Snapshot();
  // The search and the blast offer whatever load the host sustains, so the
  // memory high-water mark is read after the fixed-rate phases.
  const double peak_rss_mb = PeakRssMb();

  result.attempted = lo.sent + hi.sent;
  result.failed = lo.failed() + hi.failed();
  result.Check(lo.replies == lo.sent && hi.replies == hi.sent,
               "client books: replies != sent");

  if (!options.trace) {
    // Blast ingest through the repo's LoadGenerator against the ingest
    // server, kBlasts short blasts spread across the search.
    std::vector<double> ingest_rps;
    auto blast_once = [&](int b) {
      LoadGenConfig blast;
      blast.port = ingest->port();
      blast.mode = LoadMode::kOpen;
      blast.target_rps = 0.0;
      blast.connections = kConnections;
      blast.duration_ms = static_cast<int64_t>(blast_s * 1000.0 / kBlasts);
      blast.drain_ms = 1'000;
      blast.num_functions = kFunctions;
      blast.seed = options.seed + static_cast<uint64_t>(b);
      LoadGenResult blasted;
      if (!LoadGenerator(blast).Run(&blasted, &error)) {
        result.Check(false, "blast failed: " + error);
        return;
      }
      ingest_rps.push_back(blasted.reply_rps());
    };
    // The ingest figure: the hi sequence through the ingest server's
    // request path without sockets.  Over loopback the blast moved +-40%
    // between runs with the host's scheduling, beyond any bound a
    // regression check could use.  Zero service time completes every
    // request inline on the synthetic clock, so the work is the same in
    // every run.  The passes follow each blast, so their median samples
    // the host across the search rather than at one moment.
    std::vector<double> socketless_rps;
    SocketlessCosts first;
    auto socketless_once = [&] {
      const ScopedCpuPin pin(static_cast<int>(socketless_rps.size()));
      const SocketlessCosts costs =
          Socketless(*popularity, hi_rps, hi_s, socketless_seed, false);
      if (socketless_rps.empty()) first = costs;
      CheckSocketless(costs, first, hi_requests, result);
      socketless_rps.push_back(costs.IngestPerSecond());
    };
    // Rate search: step up from hi by 25% until a limit breaks.
    double max_rps = MeetsLimit(lo) ? lo_rps : 0.0;
    bool passing = MeetsLimit(hi);
    if (passing) max_rps = hi_rps;
    std::string steps;
    double rate = hi_rps;
    for (int k = 1; k <= std::max(kSearchSteps, kBlasts); ++k) {
      if (k <= kBlasts) {
        blast_once(k);
        for (int i = 0; i < kSocketlessPassesPerBlast; ++i) socketless_once();
      }
      if (!passing || k > kSearchSteps) continue;
      rate *= 1.25;
      const PhaseStats step = phase(rate, search_step_s, 10 + k);
      passing = MeetsLimit(step);
      if (passing) max_rps = rate;
      steps += std::to_string(static_cast<int64_t>(rate)) +
               (passing ? ":ok " : ":limit ");
    }
    client.reset();
    server->Stop();
    ingest->Stop();
    const ServeStats final_stats = server->Snapshot();

    result.Set("setup_s", Median(setups), "s");
    result.Set("peak_rss_mb", peak_rss_mb, "MB");
    result.Set("throughput_per_s", Median(socketless_rps), "1/s");
    result.Set("latency_p50_ms", hi.latency.PercentileMs(50.0), "ms");
    result.Set("latency_p99_ms", hi.latency.PercentileMs(99.0), "ms");
    result.Detail("serve_p50_ms_lo", lo.latency.PercentileMs(50.0), "ms");
    result.Detail("serve_p99_ms_lo", lo.latency.PercentileMs(99.0), "ms");
    result.Detail("serve_p50_ms_hi", hi.latency.PercentileMs(50.0), "ms");
    result.Detail("serve_p99_ms_hi", hi.latency.PercentileMs(99.0), "ms");
    result.Detail("serve_max_rps", max_rps, "req/s");
    result.Detail("serve_ingest_rps", Median(ingest_rps), "req/s");
    result.Detail("fail_pct",
                  100.0 * static_cast<double>(result.failed) /
                      static_cast<double>(
                          std::max<int64_t>(1, result.attempted)),
                  "%");
    result.notes["lo_samples"] = std::to_string(lo.latency.count());
    result.notes["hi_samples"] = std::to_string(hi.latency.count());
    result.notes["lo_cold_pct"] = std::to_string(
        100.0 * static_cast<double>(lo.cold) / std::max<int64_t>(1, lo.ok));
    result.notes["hi_cold_pct"] = std::to_string(
        100.0 * static_cast<double>(hi.cold) / std::max<int64_t>(1, hi.ok));
    result.notes["hi_late_p99_ms"] =
        std::to_string(hi.lateness.PercentileMs(99.0));
    result.notes["socketless_warm"] = std::to_string(first.warm);
    result.notes["socketless_cold"] = std::to_string(first.cold);
    result.notes["top_18.6pct_share"] =
        std::to_string(popularity->top_share());
    result.notes["blasts"] = std::to_string(ingest_rps.size());
    result.notes["search"] = steps;
    CheckEngaged(final_stats, result);
    return result;
  }

  // Traced run: a second, untraced hi phase prices the instrumentation
  // (the span log and the stats snapshots around the first one).
  const PhaseStats hi_plain = phase(hi_rps, hi_s, 3);
  client.reset();
  server->Stop();
  ingest->Stop();
  const ServeStats final_stats = server->Snapshot();
  CheckEngaged(final_stats, result);

  const double plain_p50 = hi_plain.latency.PercentileMs(50.0);
  result.Set("trace_overhead_pct",
             plain_p50 > 0.0
                 ? 100.0 * (hi.latency.PercentileMs(50.0) - plain_p50) /
                       plain_p50
                 : 0.0,
             "pct");
  result.Set("serve.client.late_ms_p99", hi.lateness.PercentileMs(99.0), "ms");
  result.Set("serve.server.p50_ms",
             DeltaPercentileMs(before_hi.latency, after_hi.latency, 50.0),
             "ms");
  result.Set("serve.server.p99_ms",
             DeltaPercentileMs(before_hi.latency, after_hi.latency, 99.0),
             "ms");
  result.Set("serve.outside_ms_p50", hi.outside.PercentileMs(50.0), "ms");
  const int64_t drained = after_hi.ledger.drained - before_hi.ledger.drained;
  result.Set("serve.bridge.queue_wait_ms_mean",
             drained > 0 ? (after_hi.ledger.total_queue_wait_ms -
                            before_hi.ledger.total_queue_wait_ms) /
                               static_cast<double>(drained)
                         : 0.0,
             "ms");
  const int64_t warm =
      after_hi.bridge.served_warm - before_hi.bridge.served_warm;
  const int64_t served = after_hi.bridge.served() - before_hi.bridge.served();
  result.Set("serve.bridge.warm_ratio",
             served > 0
                 ? static_cast<double>(warm) / static_cast<double>(served)
                 : 0.0,
             "ratio");
  result.Set("serve.bridge.evictions",
             static_cast<double>(after_hi.bridge.evictions -
                                 before_hi.bridge.evictions),
             "count");
  {
    const ScopedSpan span(log, "serve.socketless");
    const SocketlessCosts plain =
        Socketless(*popularity, hi_rps, hi_s, socketless_seed, false);
    const SocketlessCosts costs =
        Socketless(*popularity, hi_rps, hi_s, socketless_seed, true);
    CheckSocketless(plain, plain, hi_requests, result);
    CheckSocketless(costs, plain, hi_requests, result);
    result.notes["socketless_warm"] = std::to_string(costs.warm);
    result.notes["socketless_cold"] = std::to_string(costs.cold);
    const double n = static_cast<double>(std::max<size_t>(1, costs.requests));
    result.Set("serve.wire.decode_ns", costs.decode_ns / n, "ns");
    result.Set("serve.bridge.admit_ns", costs.admit_ns / n, "ns");
    result.Set("serve.timer_wheel.advance_ns", costs.advance_ns / n, "ns");
    result.Set("serve.wire.encode_ns",
               costs.encode_ns /
                   static_cast<double>(std::max<size_t>(1, costs.replies)),
               "ns");
  }
  if (!options.trace_path.empty()) spans.WriteChromeTrace(options.trace_path);
  result.notes["spans"] = std::to_string(spans.size());
  return result;
}

}  // namespace perfbench
