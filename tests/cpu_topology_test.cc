#include "src/common/cpu_topology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace faas {
namespace {

TEST(ParseCpuListTest, SingleCpu) {
  EXPECT_EQ(CpuTopology::ParseCpuList("0"), (std::vector<int>{0}));
  EXPECT_EQ(CpuTopology::ParseCpuList("17"), (std::vector<int>{17}));
}

TEST(ParseCpuListTest, Range) {
  EXPECT_EQ(CpuTopology::ParseCpuList("0-3"), (std::vector<int>{0, 1, 2, 3}));
}

TEST(ParseCpuListTest, MixedRangesAndSingles) {
  EXPECT_EQ(CpuTopology::ParseCpuList("0-3,8,10-11"),
            (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
}

TEST(ParseCpuListTest, WhitespaceAndTrailingNewline) {
  EXPECT_EQ(CpuTopology::ParseCpuList(" 0-1 , 4 \n"),
            (std::vector<int>{0, 1, 4}));
}

TEST(ParseCpuListTest, SortsAndDeduplicates) {
  EXPECT_EQ(CpuTopology::ParseCpuList("5,1-2,2,5"),
            (std::vector<int>{1, 2, 5}));
}

TEST(ParseCpuListTest, SkipsMalformedChunks) {
  EXPECT_EQ(CpuTopology::ParseCpuList("0,x,3-,-,2"),
            (std::vector<int>{0, 2}));
  EXPECT_TRUE(CpuTopology::ParseCpuList("").empty());
  EXPECT_TRUE(CpuTopology::ParseCpuList("garbage").empty());
}

TEST(ParseCpuListTest, InvertedRangeIsSkipped) {
  EXPECT_EQ(CpuTopology::ParseCpuList("3-1,0"), (std::vector<int>{0}));
}

TEST(CpuTopologyTest, DetectNeverEmpty) {
  const CpuTopology& topo = CpuTopology::Detect();
  ASSERT_GE(topo.num_nodes(), 1);
  EXPECT_GE(topo.num_cpus(), 1);
  for (const CpuTopology::Node& node : topo.nodes) {
    EXPECT_FALSE(node.cpus.empty());
    EXPECT_TRUE(std::is_sorted(node.cpus.begin(), node.cpus.end()));
  }
  // Node ids ascend.
  for (size_t n = 1; n < topo.nodes.size(); ++n) {
    EXPECT_LT(topo.nodes[n - 1].id, topo.nodes[n].id);
  }
}

TEST(CpuTopologyTest, DetectIsCached) {
  EXPECT_EQ(&CpuTopology::Detect(), &CpuTopology::Detect());
}

TEST(CpuTopologyTest, InterleavedCoversEveryCpuExactlyOnce) {
  const CpuTopology& topo = CpuTopology::Detect();
  const std::vector<int> interleaved = topo.InterleavedCpus();
  EXPECT_EQ(static_cast<int>(interleaved.size()), topo.num_cpus());
  std::set<int> seen(interleaved.begin(), interleaved.end());
  EXPECT_EQ(static_cast<int>(seen.size()), topo.num_cpus());
  for (const CpuTopology::Node& node : topo.nodes) {
    for (int cpu : node.cpus) {
      EXPECT_EQ(seen.count(cpu), 1u) << "cpu " << cpu << " missing";
    }
  }
}

TEST(CpuTopologyTest, InterleavedRoundRobinsAcrossNodes) {
  CpuTopology topo;
  topo.nodes = {{0, {0, 1, 2}}, {1, {4, 5}}};
  EXPECT_EQ(topo.InterleavedCpus(), (std::vector<int>{0, 4, 1, 5, 2}));
}

}  // namespace
}  // namespace faas
