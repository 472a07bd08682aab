// The headline integration test: the §7.1 campaign, run "entirely
// automatically" against every registered system, finds the 11 previously
// unknown bugs of Table 1 across the paper's four systems plus the bfs
// target's planted superblock crash.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "apps/common/campaign_driver.h"

namespace lfi {
namespace {

// The Table 1 campaign for `system` ("all" = the union) through the driver.
std::vector<FoundBug> Table1Bugs(const std::string& system) {
  std::string error;
  auto outcome = CampaignDriver({.system = system, .mode = CampaignMode::kTable1}).Run(&error);
  EXPECT_TRUE(outcome.has_value()) << error;
  return outcome ? outcome->bugs : std::vector<FoundBug>{};
}

std::set<std::string> Kinds(const std::vector<FoundBug>& bugs) {
  std::set<std::string> out;
  for (const auto& b : bugs) {
    out.insert(b.kind + " / " + b.where);
  }
  return out;
}

TEST(Campaign, GitFindsItsFiveBugs) {
  auto bugs = Table1Bugs("git");
  EXPECT_EQ(bugs.size(), 5u) << [&] {
    std::string s;
    for (const auto& b : bugs) {
      s += b.kind + " / " + b.where + " (" + b.injected + ")\n";
    }
    return s;
  }();
  auto kinds = Kinds(bugs);
  EXPECT_TRUE(kinds.count("SIGSEGV / readdir"));
  EXPECT_TRUE(kinds.count("SIGSEGV / xmerge.c:567 result buffer"));
  EXPECT_TRUE(kinds.count("SIGSEGV / xmerge.c:571 marker buffer"));
  EXPECT_TRUE(kinds.count("SIGSEGV / xpatience.c:191 histogram table"));
  EXPECT_TRUE(kinds.count("data loss / repository corrupted by hook environment"));
}

TEST(Campaign, MysqlFindsItsTwoBugs) {
  auto bugs = Table1Bugs("mysql");
  ASSERT_EQ(bugs.size(), 2u) << [&] {
    std::string s;
    for (const auto& b : bugs) {
      s += b.kind + " / " + b.where + " (" + b.injected + ")\n";
    }
    return s;
  }();
  bool double_unlock = false;
  bool errmsg_crash = false;
  for (const auto& b : bugs) {
    if (b.kind == "double mutex unlock") {
      double_unlock = true;
    }
    if (b.kind == "SIGSEGV" && b.where.find("errmsg") != std::string::npos) {
      errmsg_crash = true;
    }
  }
  EXPECT_TRUE(double_unlock);
  EXPECT_TRUE(errmsg_crash);
}

TEST(Campaign, BindFindsItsTwoBugs) {
  auto bugs = Table1Bugs("bind");
  ASSERT_EQ(bugs.size(), 2u) << [&] {
    std::string s;
    for (const auto& b : bugs) {
      s += b.kind + " / " + b.where + " (" + b.injected + ")\n";
    }
    return s;
  }();
  bool stats_crash = false;
  bool dst_abort = false;
  for (const auto& b : bugs) {
    if (b.where.find("xmlTextWriterWriteElement") != std::string::npos) {
      stats_crash = true;
    }
    if (b.where.find("dst_lib_destroy") != std::string::npos) {
      dst_abort = true;
    }
  }
  EXPECT_TRUE(stats_crash);
  EXPECT_TRUE(dst_abort);
}

TEST(Campaign, PbftFindsItsTwoBugs) {
  auto bugs = Table1Bugs("pbft");
  ASSERT_EQ(bugs.size(), 2u) << [&] {
    std::string s;
    for (const auto& b : bugs) {
      s += b.kind + " / " + b.where + " (" + b.injected + ")\n";
    }
    return s;
  }();
  bool shutdown_crash = false;
  bool view_change_crash = false;
  for (const auto& b : bugs) {
    if (b.where.find("fwrite") != std::string::npos) {
      shutdown_crash = true;
    }
    if (b.where.find("view change") != std::string::npos) {
      view_change_crash = true;
    }
  }
  EXPECT_TRUE(shutdown_crash);
  EXPECT_TRUE(view_change_crash);
}

TEST(Campaign, FullCampaignFindsTwelveBugs) {
  auto bugs = Table1Bugs("all");
  EXPECT_EQ(bugs.size(), 12u);
  // The twelfth bug beyond the paper's eleven is bfs's unchecked-fopen
  // superblock crash.
  size_t bfs_bugs = 0;
  for (const auto& b : bugs) {
    if (b.system == "bfs") {
      ++bfs_bugs;
      EXPECT_EQ(b.kind, "SIGSEGV");
      EXPECT_NE(b.where.find("fwrite"), std::string::npos);
    }
  }
  EXPECT_EQ(bfs_bugs, 1u);
}

}  // namespace
}  // namespace lfi
