// Lossy-network experiment on the mini-OpenWhisk cluster: mid-popularity
// apps replayed through the network-faithful transport at increasing link
// loss rates, with and without hedged dispatch, plus a partition-heavy
// acceptance scenario checked for bit-identical ledgers across replay
// thread counts.
//
// The paper's testbed assumes a healthy datacenter network (Section 5.3);
// this bench asks what the keep-alive policy's goodput and tail latency
// cost when the controller<->invoker links are not cooperating.  Writes
// results/network_cluster.csv (goodput/p99 vs loss rate, hedging on/off)
// and BENCH_network.json.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/series_writer.h"
#include "src/cluster/cluster.h"
#include "src/common/parallel.h"
#include "src/faults/fault_plan.h"
#include "src/policy/policy.h"
#include "src/stats/descriptive.h"

namespace {

using namespace faas;

struct Row {
  std::string label;
  double loss_pct = 0.0;
  bool hedge = false;
  ClusterResult result;
};

double PercentileOrZero(const std::vector<double>& samples, double pct) {
  return samples.empty() ? 0.0 : Percentile(samples, pct);
}

int64_t Completed(const ClusterResult& r) {
  int64_t completed = 0;
  for (const ClusterAppResult& app : r.apps) {
    completed += app.Completed();
  }
  return completed;
}

double GoodputPct(const ClusterResult& r) {
  return r.total_invocations > 0
             ? 100.0 * static_cast<double>(Completed(r)) /
                   static_cast<double>(r.total_invocations)
             : 0.0;
}

}  // namespace

int main() {
  PrintBenchHeader("Network / lossy links",
                   "goodput and tail latency vs link loss, hedging on/off");
  const Trace full = MakePolicyTrace();
  const Trace slice =
      SelectMidPopularitySlice(full, 68, Duration::Hours(6), 42, 500.0,
                               2'000.0);
  std::printf("replaying %zu mid-popularity apps over 6 hours on 6 invokers "
              "behind a faulty network\n",
              slice.apps.size());

  ClusterConfig base;
  base.num_invokers = 6;
  base.invoker_memory_mb = 2048.0;
  base.retry.max_retries = 2;
  base.retry.activation_timeout = Duration::Minutes(1);
  base.network.enabled = true;

  const auto with_loss = [&](double loss, bool hedge) {
    ClusterConfig config = base;
    if (loss > 0.0) {
      NetLossWindow window;
      window.invoker = -1;
      window.start = TimePoint::Origin();
      window.duration = slice.horizon;
      window.probability = loss;
      config.faults.loss_windows.push_back(window);
    }
    if (hedge) {
      config.overload.hedge.after = Duration::Millis(750);
    }
    return config;
  };

  const FixedKeepAliveFactory fixed(Duration::Minutes(10));
  std::vector<Row> rows;
  for (const double loss : {0.0, 0.001, 0.01, 0.05}) {
    for (const bool hedge : {false, true}) {
      char label[48];
      std::snprintf(label, sizeof(label), "loss-%.1f%%%s", 100.0 * loss,
                    hedge ? "+hedge" : "");
      rows.push_back({label, 100.0 * loss, hedge,
                      ClusterSimulator(with_loss(loss, hedge))
                          .Replay(slice, fixed)});
    }
  }

  SeriesWriter series(
      "network_cluster",
      {"config", "loss_pct", "hedge", "goodput_pct", "e2e_p50_ms",
       "e2e_p99_ms", "retransmits", "give_ups", "dup_suppressed",
       "lost_network", "hedges", "cold_p50_pct"});
  std::printf("\n%-16s %8s %9s %9s %7s %8s %7s %8s %7s %8s\n", "config",
              "goodput", "e2e p50", "e2e p99", "retx", "giveups", "dedup",
              "lost-net", "hedges", "cold50");
  for (const Row& row : rows) {
    const ClusterResult& r = row.result;
    const double p50 = PercentileOrZero(r.end_to_end_latency_ms, 50.0);
    const double p99 = PercentileOrZero(r.end_to_end_latency_ms, 99.0);
    std::printf("%-16s %7.1f%% %7.0fms %7.0fms %7lld %8lld %7lld %8lld "
                "%7lld %7.1f%%\n",
                row.label.c_str(), GoodputPct(r), p50, p99,
                static_cast<long long>(r.faults.rpc_retransmits),
                static_cast<long long>(r.faults.rpc_give_ups),
                static_cast<long long>(r.faults.rpc_duplicates_suppressed),
                static_cast<long long>(r.faults.lost_network),
                static_cast<long long>(r.overload.hedges_launched),
                r.AppColdStartPercentile(50.0));
    series.Row(row.label, row.loss_pct, row.hedge ? 1 : 0, GoodputPct(r),
               p50, p99, r.faults.rpc_retransmits, r.faults.rpc_give_ups,
               r.faults.rpc_duplicates_suppressed, r.faults.lost_network,
               r.overload.hedges_launched, r.AppColdStartPercentile(50.0));
  }

  // Where the traffic comes from: messages sent per invocation, by kind
  // (stdout only; the CSV and JSON snapshots keep their columns).
  std::printf("\nmessages per invocation by kind\n%-16s %7s", "config",
              "total");
  for (size_t k = 0; k < kNumNetMessageKinds; ++k) {
    std::printf(" %14s", NetMessageKindName(static_cast<NetMessageKind>(k)));
  }
  std::printf("\n");
  for (const Row& row : rows) {
    const ClusterResult& r = row.result;
    const double invocations =
        static_cast<double>(std::max<int64_t>(1, r.total_invocations));
    std::printf("%-16s %7.2f", row.label.c_str(),
                static_cast<double>(r.faults.net_messages_sent) / invocations);
    for (const int64_t sent : r.net_sent_by_kind) {
      std::printf(" %14.2f", static_cast<double>(sent) / invocations);
    }
    std::printf("\n");
  }

  // Acceptance scenario: 1% loss + two partitions (one invoker-local, one
  // cluster-wide) + a duplicate window.  The transport ledger must be
  // bit-identical whether the replicated replays run on 1 thread or 4.
  std::string error;
  ClusterConfig faulted = base;
  faulted.faults = *FaultPlan::Parse(
      "netloss:at=0s,for=6h,p=0.01; partition:at=1h,for=2m,invoker=0; "
      "partition:at=3h,for=90s; netdup:at=4h,for=30m,p=0.2",
      &error);
  const ClusterSimulator faulted_sim(faulted);
  const ClusterResult reference = faulted_sim.Replay(slice, fixed);
  bool deterministic = true;
  for (const int num_threads : {1, 4}) {
    std::vector<ClusterResult> replicas(4);
    ParallelFor(
        replicas.size(),
        [&](size_t i) { replicas[i] = faulted_sim.Replay(slice, fixed); },
        num_threads);
    for (const ClusterResult& replica : replicas) {
      deterministic = deterministic && replica.faults == reference.faults;
    }
  }
  std::printf("\nacceptance: 1%% loss + 2 partitions + duplicates -> "
              "goodput %.1f%%, retx=%lld dedup=%lld dup-delivered=%lld "
              "giveups=%lld; ledger deterministic across threads: %s\n",
              GoodputPct(reference),
              static_cast<long long>(reference.faults.rpc_retransmits),
              static_cast<long long>(
                  reference.faults.rpc_duplicates_suppressed),
              static_cast<long long>(
                  reference.faults.net_duplicates_delivered),
              static_cast<long long>(reference.faults.rpc_give_ups),
              deterministic ? "yes" : "NO");

  const char* env = std::getenv("FAAS_BENCH_NETWORK_JSON");
  const std::string path = env != nullptr ? env : "BENCH_network.json";
  if (path != "off") {
    std::ofstream out(path);
    out << "{\n  \"bench\": \"network_cluster\",\n";
    out << "  \"apps\": " << slice.apps.size() << ",\n";
    out << "  \"invokers\": " << base.num_invokers << ",\n";
    out << "  \"rows\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      const ClusterResult& r = rows[i].result;
      out << "    {\"config\": \"" << rows[i].label
          << "\", \"loss_pct\": " << rows[i].loss_pct
          << ", \"hedge\": " << (rows[i].hedge ? "true" : "false")
          << ", \"goodput_pct\": " << GoodputPct(r)
          << ", \"e2e_p99_ms\": "
          << PercentileOrZero(r.end_to_end_latency_ms, 99.0)
          << ", \"retransmits\": " << r.faults.rpc_retransmits
          << ", \"give_ups\": " << r.faults.rpc_give_ups
          << ", \"lost_network\": " << r.faults.lost_network << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"acceptance\": {\"plan\": \"1pct-loss+2-partitions+dup\", "
        << "\"goodput_pct\": " << GoodputPct(reference)
        << ", \"messages_sent\": " << reference.faults.net_messages_sent
        << ", \"retransmits\": " << reference.faults.rpc_retransmits
        << ", \"duplicates_delivered\": "
        << reference.faults.net_duplicates_delivered
        << ", \"duplicates_suppressed\": "
        << reference.faults.rpc_duplicates_suppressed
        << ", \"lost_to_partition\": "
        << reference.faults.net_lost_to_partition
        << ", \"deterministic_across_threads\": "
        << (deterministic ? "true" : "false") << "}\n";
    out << "}\n";
    std::printf("wrote %s\n", path.c_str());
  }
  return deterministic ? 0 : 1;
}
