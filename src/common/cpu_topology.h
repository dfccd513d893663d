// CPU / NUMA topology detection for pinning the serve event loops.
//
// A serve event loop owns everything a connection touches — its packets,
// decoder stash, timers and admission state (see src/serve/server.h) — so
// pinning loop i to one CPU keeps that state in one core's caches.  Loops
// take CPUs interleaved across NUMA nodes, so a loop count smaller than the
// machine still spans every memory controller.
//
// Detection reads /sys/devices/system/node/node*/cpulist on Linux and falls
// back to a single node holding every hardware thread elsewhere (or when
// sysfs is unreadable, e.g. in containers that mask it).  Detection never
// fails: the fallback is always a valid topology.

#ifndef SRC_COMMON_CPU_TOPOLOGY_H_
#define SRC_COMMON_CPU_TOPOLOGY_H_

#include <string_view>
#include <vector>

namespace faas {

struct CpuTopology {
  struct Node {
    int id = 0;
    std::vector<int> cpus;  // Online CPU ids on this node, ascending.
  };
  std::vector<Node> nodes;  // Ascending node id; never empty after Detect().

  int num_nodes() const { return static_cast<int>(nodes.size()); }
  int num_cpus() const;

  // CPUs ordered round-robin across nodes (node0-cpu0, node1-cpu0, ...,
  // node0-cpu1, ...), so pinning the first K loops to the first K entries
  // spreads any loop count evenly over the memory controllers.
  std::vector<int> InterleavedCpus() const;

  // Reads the machine topology (see header comment).  Cached per process;
  // the first call pays the sysfs walk.
  static const CpuTopology& Detect();

  // Parses a sysfs cpulist string ("0-3,8,10-11") into CPU ids.  Exposed for
  // tests; malformed chunks are skipped.
  static std::vector<int> ParseCpuList(std::string_view list);
};

}  // namespace faas

#endif  // SRC_COMMON_CPU_TOPOLOGY_H_
