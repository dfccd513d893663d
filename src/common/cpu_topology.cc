#include "src/common/cpu_topology.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/common/parallel.h"

namespace faas {

namespace {

// Reads a small sysfs file into a string; empty on any failure.
std::string ReadSysFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return {};
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool ParseInt(std::string_view text, int* value) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, *value);
  return ec == std::errc() && ptr == end && *value >= 0;
}

CpuTopology FallbackTopology() {
  CpuTopology topo;
  CpuTopology::Node node;
  node.id = 0;
  const int cpus = HardwareThreads();
  node.cpus.reserve(static_cast<size_t>(cpus));
  for (int c = 0; c < cpus; ++c) {
    node.cpus.push_back(c);
  }
  topo.nodes.push_back(std::move(node));
  return topo;
}

CpuTopology DetectUncached() {
#if defined(__linux__)
  CpuTopology topo;
  // Nodes are sparse in principle; probe a generous id range rather than
  // listing the directory (keeps this dependency-free).
  constexpr int kMaxNodeProbe = 256;
  for (int id = 0; id < kMaxNodeProbe; ++id) {
    const std::string path =
        "/sys/devices/system/node/node" + std::to_string(id) + "/cpulist";
    const std::string list = ReadSysFile(path);
    if (list.empty()) {
      continue;
    }
    CpuTopology::Node node;
    node.id = id;
    node.cpus = CpuTopology::ParseCpuList(list);
    if (!node.cpus.empty()) {
      topo.nodes.push_back(std::move(node));
    }
  }
  if (!topo.nodes.empty()) {
    return topo;
  }
#endif
  return FallbackTopology();
}

}  // namespace

int CpuTopology::num_cpus() const {
  int total = 0;
  for (const Node& node : nodes) {
    total += static_cast<int>(node.cpus.size());
  }
  return total;
}

std::vector<int> CpuTopology::InterleavedCpus() const {
  std::vector<int> cpus;
  cpus.reserve(static_cast<size_t>(num_cpus()));
  for (size_t round = 0; cpus.size() < static_cast<size_t>(num_cpus());
       ++round) {
    for (const Node& node : nodes) {
      if (round < node.cpus.size()) {
        cpus.push_back(node.cpus[round]);
      }
    }
  }
  return cpus;
}

const CpuTopology& CpuTopology::Detect() {
  static const CpuTopology topo = DetectUncached();
  return topo;
}

std::vector<int> CpuTopology::ParseCpuList(std::string_view list) {
  std::vector<int> cpus;
  size_t pos = 0;
  while (pos < list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string_view::npos) {
      comma = list.size();
    }
    std::string_view chunk = list.substr(pos, comma - pos);
    pos = comma + 1;
    // Trim whitespace / trailing newline.
    while (!chunk.empty() && (chunk.back() == '\n' || chunk.back() == ' ')) {
      chunk.remove_suffix(1);
    }
    while (!chunk.empty() && chunk.front() == ' ') {
      chunk.remove_prefix(1);
    }
    if (chunk.empty()) {
      continue;
    }
    const size_t dash = chunk.find('-');
    int lo = 0;
    int hi = 0;
    if (dash == std::string_view::npos) {
      if (!ParseInt(chunk, &lo)) {
        continue;
      }
      hi = lo;
    } else if (!ParseInt(chunk.substr(0, dash), &lo) ||
               !ParseInt(chunk.substr(dash + 1), &hi) || hi < lo) {
      continue;
    }
    for (int c = lo; c <= hi; ++c) {
      cpus.push_back(c);
    }
  }
  std::sort(cpus.begin(), cpus.end());
  cpus.erase(std::unique(cpus.begin(), cpus.end()), cpus.end());
  return cpus;
}

}  // namespace faas
