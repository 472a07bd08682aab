// Table 1: the bugs LFI finds entirely on its own (§7.1).
//
// Runs the full automated campaign -- library profiling, call-site analysis,
// scenario generation, fault injection against the default workloads, plus
// the random-injection follow-up -- against all five systems and prints the
// discovered bug list. The paper reports 11 previously unknown bugs across
// git, MySQL, BIND and PBFT; bfs, the fifth target, adds its superblock
// crash. Exits nonzero unless every system reports its expected count.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "apps/common/campaign_driver.h"

int main() {
  std::printf("=== Table 1: bugs found automatically by LFI ===\n\n");
  std::printf("%-8s %-22s %-55s %s\n", "System", "Failure", "Where", "Exposing fault");
  std::printf("%.120s\n", "-------------------------------------------------------------------"
                          "-----------------------------------------------------");
  std::string error;
  auto outcome =
      lfi::CampaignDriver({.system = "all", .mode = lfi::CampaignMode::kTable1}).Run(&error);
  if (!outcome) {
    std::fprintf(stderr, "campaign failed: %s\n", error.c_str());
    return 1;
  }
  const std::vector<lfi::FoundBug>& bugs = outcome->bugs;
  for (const auto& bug : bugs) {
    std::printf("%-8s %-22s %-55s %s\n", bug.system.c_str(), bug.kind.c_str(),
                bug.where.c_str(), bug.injected.c_str());
  }
  std::printf("\nTotal distinct bugs: %zu   (paper: 11, plus bfs)\n", bugs.size());

  const std::map<std::string, size_t> expected = {
      {"git", 5}, {"mysql", 2}, {"bind", 2}, {"pbft", 2}, {"bfs", 1}};
  std::map<std::string, size_t> found;
  for (const auto& bug : bugs) {
    ++found[bug.system];
  }
  if (found != expected) {
    for (const auto& [system, count] : expected) {
      std::fprintf(stderr, "%s: expected %zu bug(s), found %zu\n", system.c_str(), count,
                   found.count(system) != 0 ? found.at(system) : size_t{0});
    }
    return 1;
  }
  return 0;
}
