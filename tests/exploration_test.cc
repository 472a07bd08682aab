// The feedback-driven exploration pipeline: ScenarioSource streaming,
// injection-log replay through the engine, seed reproducibility at 1/2/8
// workers, and the coverage-guided strategy's win over the exhaustive list.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "apps/common/campaign_driver.h"
#include "apps/git/git.h"
#include "core/campaign_engine.h"
#include "core/controller.h"
#include "core/exploration.h"
#include "core/injection_log.h"
#include "core/journal.h"
#include "core/stock_triggers.h"
#include "util/errno_codes.h"
#include "vlib/library_profiles.h"
#include "vlib/virtual_libc.h"

namespace lfi {
namespace {

void ExpectSameBugs(const std::vector<FoundBug>& a, const std::vector<FoundBug>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].system, b[i].system) << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].where, b[i].where) << i;
    EXPECT_EQ(a[i].injected, b[i].injected) << i;
  }
}

// Runs `spec` through the driver, failing the test on a driver error.
CampaignOutcome Drive(const CampaignSpec& spec) {
  std::string error;
  auto outcome = CampaignDriver(spec).Run(&error);
  EXPECT_TRUE(outcome.has_value()) << error;
  return outcome ? std::move(*outcome) : CampaignOutcome{};
}

CampaignSpec ExploreSpec(const std::string& system, ExploreStrategy strategy, size_t budget,
                         uint64_t seed) {
  return {.system = system,
          .mode = CampaignMode::kExplore,
          .strategy = strategy,
          .budget = budget,
          .seed = seed};
}

// --- ExhaustiveSource streaming -------------------------------------------

TEST(ExhaustiveSource, StreamsInOrderAndHonoursTheBudget) {
  std::vector<CampaignJob> jobs(10);
  for (size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].label = "job-" + std::to_string(i);
  }
  ExhaustiveSource source(std::move(jobs), /*budget=*/7);
  std::vector<std::string> labels;
  for (size_t expected : {3u, 3u, 1u, 0u}) {
    std::vector<CampaignJob> batch = source.NextBatch(3);
    EXPECT_EQ(batch.size(), expected);
    for (const CampaignJob& job : batch) {
      labels.push_back(job.label);
    }
  }
  ASSERT_EQ(labels.size(), 7u);
  for (size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(labels[i], "job-" + std::to_string(i));
  }
}

// --- injection-log replay --------------------------------------------------

// A fault found by random injection, replayed deterministically from its log
// record: the replay must crash at the same site with the same single
// injection (the paper's R2-style "reproduce exactly that injection").
TEST(InjectionLogReplay, ReplayedScenarioReproducesTheCrashSiteThroughTheEngine) {
  EnsureStockTriggersRegistered();

  // Expose the Table 1 readdir bug by failing every opendir.
  Scenario every_opendir = MakeRandomScenario("opendir", 0, kEMFILE, 1.0, /*seed=*/1);
  InjectionLog log;
  std::string crash_where;
  {
    VirtualFs fs;
    VirtualNet net;
    MiniGit git(&fs, &net, "/repo");
    TestController controller(every_opendir, SeededOptions(1));
    TestOutcome outcome = controller.RunTest(&git.libc(), [&] {
      git.Init();
      git.ListBranches();
      return true;
    });
    ASSERT_TRUE(outcome.crashed());
    crash_where = outcome.crash_where;
    ASSERT_FALSE(controller.runtime()->log().empty());
    log = controller.runtime()->log();
  }

  // The last record is the injection the process died on.
  Scenario replay = log.ReplayScenario(log.size() - 1);
  ASSERT_FALSE(replay.functions().empty());

  CampaignJob job;
  job.scenario = replay;
  job.label = "replay";
  job.explore = [](const CampaignJob& self) {
    JobResult result;
    VirtualFs fs;
    VirtualNet net;
    MiniGit git(&fs, &net, "/repo");
    TestController controller(self.scenario, SeededOptions(self.seed));
    TestOutcome outcome = controller.RunTest(&git.libc(), [&] {
      git.Init();
      git.ListBranches();
      return true;
    });
    if (outcome.crashed()) {
      result.bugs.push_back(
          {"git", CrashKindName(outcome.crash_kind), outcome.crash_where, self.label});
    }
    result.injections = outcome.injections;
    return result;
  };
  ExhaustiveSource source({job});
  CampaignEngine engine;
  ExplorationResult result = engine.Run(source);
  ASSERT_EQ(result.bugs.size(), 1u);
  EXPECT_EQ(result.bugs[0].where, crash_where);
}

// --- seed reproducibility at 1/2/8 workers --------------------------------

TEST(Exploration, RandomSweepReproducibleAcrossWorkerCounts) {
  CampaignSpec spec = ExploreSpec("mysql", ExploreStrategy::kRandom, 24, 7);

  spec.workers = 1;
  CampaignOutcome one = Drive(spec);
  EXPECT_EQ(one.scenarios_run, 24u);

  ExpectSameBugs(one.bugs, Drive(spec).bugs);  // rerun: bit-stable
  spec.workers = 2;
  ExpectSameBugs(one.bugs, Drive(spec).bugs);
  spec.workers = 8;
  CampaignOutcome eight = Drive(spec);
  ExpectSameBugs(one.bugs, eight.bugs);
  // The whole observation stream, not just the bug list, must match.
  EXPECT_EQ(one.coverage.hits(), eight.coverage.hits());
}

TEST(Exploration, CoverageGuidedReproducibleAcrossWorkerCounts) {
  CampaignSpec spec = ExploreSpec("pbft", ExploreStrategy::kCoverage, 12, 3);

  spec.workers = 1;
  CampaignOutcome one = Drive(spec);
  spec.workers = 2;
  ExpectSameBugs(one.bugs, Drive(spec).bugs);
  spec.workers = 8;
  // Journaling the run must not perturb it: same bugs, same coverage, one
  // journal record per scheduled scenario (tests/journal_test.cc covers the
  // resume/replay/shard workflows in depth).
  spec.journal_path = ::testing::TempDir() + "exploration_journaled.xml";
  std::remove(spec.journal_path.c_str());
  CampaignOutcome eight = Drive(spec);
  ExpectSameBugs(one.bugs, eight.bugs);
  EXPECT_EQ(one.coverage.hits(), eight.coverage.hits());
  auto journal = CampaignJournal::Load(spec.journal_path);
  ASSERT_TRUE(journal.has_value());
  EXPECT_EQ(journal->records().size(), eight.scenarios_run);
}

// --- the acceptance bar: coverage-guided >= exhaustive on pbft -------------

TEST(Exploration, CoverageGuidedCoversAtLeastExhaustiveOnPbft) {
  CampaignOutcome exhaustive = Drive(ExploreSpec("pbft", ExploreStrategy::kExhaustive, 0, 1));
  ASSERT_GT(exhaustive.scenarios_run, 0u);

  // Same budget as the exhaustive list: the guided strategy must never do
  // worse than the paper's one-shot generation.
  CampaignSpec guided_spec =
      ExploreSpec("pbft", ExploreStrategy::kCoverage, exhaustive.scenarios_run, 1);
  CampaignOutcome guided = Drive(guided_spec);
  EXPECT_GE(guided.coverage.ComputeStats().covered_recovery_blocks,
            exhaustive.coverage.ComputeStats().covered_recovery_blocks);

  // With headroom the feedback loop pushes past the analyzer's list: checked
  // sites (whose recovery paths the static classification never flags) and
  // mutations of fruitful scenarios reach recovery blocks the exhaustive
  // strategy cannot, at any budget.
  guided_spec.budget = 16;
  CampaignOutcome wider = Drive(guided_spec);
  EXPECT_GT(wider.coverage.ComputeStats().covered_recovery_blocks,
            exhaustive.coverage.ComputeStats().covered_recovery_blocks);
  // 16 > the number of distinct sites, so the exploit (mutation) queue must
  // have produced the overflow scenarios.
  EXPECT_EQ(wider.scenarios_run, 16u);
}

// Campaigns through the streamed pipeline still match the serial baseline at
// every worker count (the ported Table 1 harnesses kept their contract).
TEST(Exploration, PortedPbftCampaignStillIdenticalAcrossWorkerCounts) {
  auto table1 = [](int workers) {
    return Drive({.system = "pbft", .mode = CampaignMode::kTable1, .workers = workers}).bugs;
  };
  std::vector<FoundBug> serial = table1(1);
  ASSERT_EQ(serial.size(), 2u);
  ExpectSameBugs(serial, table1(8));
}

}  // namespace
}  // namespace lfi
