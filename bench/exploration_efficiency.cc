// Exploration efficiency: bugs found and recovery blocks covered per
// scenario budget, strategy vs. strategy.
//
// For each target system and each strategy (exhaustive, random sweep,
// coverage-guided) the bench runs the explore pipeline at increasing
// budgets and tabulates distinct bugs, covered recovery blocks, and
// scenarios actually executed. The interesting read is the coverage column:
// the exhaustive list plateaus once the analyzer's C_not sites are spent,
// while the feedback loop keeps converting budget into new recovery blocks.
//
//   bench_exploration_efficiency [seed] [budgets...] [--journal PREFIX]
//   (defaults: 1; 4 8 16 32)
//
// --journal PREFIX additionally persists each top-budget run's campaign
// journal to PREFIX-<system>-<strategy>.xml (core/journal.h), both to
// measure that journaling does not change any result and to produce
// resumable/replayable artifacts from the bench matrix.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/common/campaign_driver.h"

int main(int argc, char** argv) {
  uint64_t seed = 1;
  std::string journal_prefix;
  std::vector<size_t> budgets;
  int positionals = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--journal" && i + 1 < argc) {
      journal_prefix = argv[++i];
    } else if (++positionals == 1) {  // first positional is the seed
      seed = static_cast<uint64_t>(std::atoll(argv[i]));
    } else if (int budget = std::atoi(argv[i]); budget > 0) {
      budgets.push_back(static_cast<size_t>(budget));
    }
  }
  if (budgets.empty()) {
    budgets = {4, 8, 16, 32};
  }

  const char* systems[] = {"git", "mysql", "bind", "pbft"};
  const lfi::ExploreStrategy strategies[] = {lfi::ExploreStrategy::kExhaustive,
                                             lfi::ExploreStrategy::kRandom,
                                             lfi::ExploreStrategy::kCoverage};

  std::printf("exploration efficiency (seed %llu)\n\n", (unsigned long long)seed);
  std::printf("%-7s %-11s %-8s %-10s %-10s %s\n", "system", "strategy", "budget", "scenarios",
              "bugs", "recovery blocks covered");

  bool guided_never_worse = true;
  for (const char* system : systems) {
    size_t exhaustive_recovery = 0;
    for (lfi::ExploreStrategy strategy : strategies) {
      for (size_t budget : budgets) {
        lfi::CampaignSpec spec{.system = system,
                               .mode = lfi::CampaignMode::kExplore,
                               .strategy = strategy,
                               .budget = budget,
                               .seed = seed};
        if (!journal_prefix.empty() && budget == budgets.back()) {
          spec.journal_path = journal_prefix + "-" + system + "-" +
                              lfi::ExploreStrategyName(strategy) + ".xml";
          std::remove(spec.journal_path.c_str());
        }
        std::string error;
        auto result = lfi::CampaignDriver(spec).Run(&error);
        if (!result) {
          std::fprintf(stderr, "%s %s: %s\n", system, lfi::ExploreStrategyName(strategy),
                       error.c_str());
          return 1;
        }
        lfi::CoverageMap::Stats stats = result->coverage.ComputeStats();
        std::printf("%-7s %-11s %-8zu %-10zu %-10zu %zu/%zu\n", system,
                    lfi::ExploreStrategyName(strategy), budget, result->scenarios_run,
                    result->bugs.size(), stats.covered_recovery_blocks,
                    stats.recovery_blocks);
        if (strategy == lfi::ExploreStrategy::kExhaustive && budget == budgets.back()) {
          exhaustive_recovery = stats.covered_recovery_blocks;
        }
        if (strategy == lfi::ExploreStrategy::kCoverage && budget == budgets.back() &&
            stats.covered_recovery_blocks < exhaustive_recovery) {
          guided_never_worse = false;
        }
      }
    }
    std::printf("\n");
  }

  if (!guided_never_worse) {
    std::printf("ERROR: coverage-guided fell below exhaustive at the top budget\n");
    return 1;
  }
  std::printf("coverage-guided >= exhaustive at the top budget: ok\n");
  return 0;
}
