// The unified campaign API: CampaignSpec round trips (XML wire format and
// journal-header identity), spec validation, the one name-table, ShardSource
// dealing, and the multi-process acceptance bar -- merging N shard journals
// in any input order yields a bit-identical merged journal (and the same bug
// list and coverage as the unsharded run at equal total budget) that resumes
// cleanly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/common/campaign_driver.h"
#include "apps/common/campaign_spec.h"
#include "core/exploration.h"
#include "core/journal.h"
#include "core/scenario.h"
#include "core/stock_triggers.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace lfi {
namespace {

std::string TempPath(const char* name) { return ::testing::TempDir() + name; }

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// The driver refuses to clobber existing artifacts, so tests must clear a
// previous run's journal plus its per-shard files to stay re-runnable.
void RemoveCampaignArtifacts(const std::string& journal_path, size_t shards = 0) {
  std::remove(journal_path.c_str());
  for (size_t i = 0; i < shards; ++i) {
    std::remove((journal_path + StrFormat(".shard%zu", i)).c_str());
  }
}

CampaignSpec RandomSpec(Rng& rng) {
  CampaignSpec spec;
  const auto& systems = CampaignSystemNames();
  spec.system = systems[rng.NextBelow(systems.size())];
  spec.mode = rng.Chance(0.5) ? CampaignMode::kExplore : CampaignMode::kTable1;
  switch (rng.NextBelow(3)) {
    case 0:
      spec.strategy = ExploreStrategy::kExhaustive;
      break;
    case 1:
      spec.strategy = ExploreStrategy::kRandom;
      break;
    default:
      spec.strategy = ExploreStrategy::kCoverage;
      break;
  }
  spec.exhaustive = rng.Chance(0.5);
  spec.budget = rng.NextBelow(1000);
  spec.seed = rng.Next();  // full-range: exercises the hex encoding
  spec.workers = static_cast<int>(rng.NextBelow(9));
  if (rng.Chance(0.5)) {
    spec.journal_path = StrFormat("journal with \"quotes\" & <angles> %zu.xml",
                                  rng.NextBelow(100));
  }
  spec.resume = rng.Chance(0.3);
  if (rng.Chance(0.4)) {
    spec.shard_count = 2 + rng.NextBelow(7);
    if (rng.Chance(0.5)) {
      spec.shard_index = rng.NextBelow(spec.shard_count);
    }
  }
  spec.json = rng.Chance(0.5);
  if (rng.Chance(0.2)) {
    spec.replay_selector = StrFormat("%zu:%zu", rng.NextBelow(20), rng.NextBelow(4));
  }
  spec.abort_after_records = rng.NextBelow(10);
  return spec;
}

TEST(CampaignSpec, XmlRoundTripsAndIsCanonical) {
  Rng rng(2027);
  for (int iteration = 0; iteration < 200; ++iteration) {
    CampaignSpec spec = RandomSpec(rng);
    // Strategy only serializes in explore mode; normalize so == holds.
    if (spec.mode != CampaignMode::kExplore) {
      spec.strategy = ExploreStrategy::kExhaustive;
    }
    std::string xml = spec.ToXml();
    std::string error;
    auto parsed = CampaignSpec::Parse(xml, &error);
    ASSERT_TRUE(parsed.has_value()) << error << "\n" << xml;
    EXPECT_TRUE(*parsed == spec) << xml;
    EXPECT_EQ(parsed->ToXml(), xml);  // canonical: second trip is byte-stable
  }
}

TEST(CampaignSpec, DefaultSpecSerializesMinimal) {
  CampaignSpec spec;
  spec.system = "pbft";
  EXPECT_EQ(spec.ToXml(), "<campaignspec system=\"pbft\" mode=\"explore\" "
                          "strategy=\"exhaustive\" />\n");
}

TEST(CampaignSpec, JournalMetaRoundTripsTheIdentity) {
  Rng rng(99);
  for (int iteration = 0; iteration < 100; ++iteration) {
    CampaignSpec spec = RandomSpec(rng);
    // The journal identity covers exactly what resume needs: mode, system,
    // strategy/budget/seed (explore) or exhaustive (table1), and the shard
    // coordinates. Environment fields are deliberately excluded.
    auto back = CampaignSpec::FromJournalMeta(spec.ToJournalMeta());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->mode, spec.mode);
    EXPECT_EQ(back->system, spec.system);
    EXPECT_EQ(back->shard_index, spec.shard_index);
    if (spec.shard_index != CampaignSpec::kNoShard) {
      EXPECT_EQ(back->shard_count, spec.shard_count);
    }
    if (spec.mode == CampaignMode::kExplore) {
      EXPECT_EQ(back->strategy, spec.strategy);
      EXPECT_EQ(back->budget, spec.budget);
      EXPECT_EQ(back->seed, spec.seed);
    } else {
      EXPECT_EQ(back->exhaustive, spec.exhaustive);
    }
  }
}

TEST(CampaignSpec, NameTablesRoundTrip) {
  for (CampaignMode mode : {CampaignMode::kTable1, CampaignMode::kExplore,
                            CampaignMode::kResume, CampaignMode::kReplay}) {
    EXPECT_EQ(ParseCampaignMode(CampaignModeName(mode)), mode);
  }
  // The historical journal-header spelling of table1 mode stays parseable.
  EXPECT_EQ(ParseCampaignMode("campaign"), CampaignMode::kTable1);
  EXPECT_FALSE(ParseCampaignMode("bogus").has_value());
  for (ExploreStrategy strategy : {ExploreStrategy::kExhaustive, ExploreStrategy::kRandom,
                                   ExploreStrategy::kCoverage}) {
    EXPECT_EQ(ParseExploreStrategy(ExploreStrategyName(strategy)), strategy);
  }
  EXPECT_FALSE(ParseExploreStrategy("bogus").has_value());
  for (const std::string& system : CampaignSystemNames()) {
    EXPECT_TRUE(IsCampaignSystem(system));
  }
  EXPECT_FALSE(IsCampaignSystem("all"));
  EXPECT_FALSE(IsCampaignSystem("httpd"));
}

TEST(CampaignSpec, ValidateRejectsUnrunnableSpecs) {
  auto spec = [] {
    CampaignSpec s;
    s.system = "pbft";
    s.mode = CampaignMode::kExplore;
    s.journal_path = "j.xml";
    return s;
  };
  EXPECT_EQ(spec().Validate(), "");

  CampaignSpec s = spec();
  s.system = "nope";
  EXPECT_NE(s.Validate(), "");

  s = spec();  // coverage strategy cannot be dealt across processes
  s.strategy = ExploreStrategy::kCoverage;
  s.shard_count = 4;
  EXPECT_NE(s.Validate(), "");
  s.strategy = ExploreStrategy::kRandom;
  EXPECT_EQ(s.Validate(), "");

  s = spec();  // sharding needs the journal artifacts
  s.shard_count = 4;
  s.journal_path.clear();
  EXPECT_NE(s.Validate(), "");

  s = spec();  // shard index in range
  s.shard_count = 4;
  s.shard_index = 4;
  EXPECT_NE(s.Validate(), "");

  s = spec();  // table1 sharding requires the cutoff-free variant
  s.mode = CampaignMode::kTable1;
  s.shard_count = 2;
  EXPECT_NE(s.Validate(), "");
  s.exhaustive = true;
  EXPECT_EQ(s.Validate(), "");

  s = CampaignSpec();  // resume/replay operate on a journal
  s.mode = CampaignMode::kResume;
  EXPECT_NE(s.Validate(), "");
  s.journal_path = "j.xml";
  EXPECT_EQ(s.Validate(), "");

  s = CampaignSpec();  // "all" only in table1 mode, never journaled
  s.system = "all";
  s.mode = CampaignMode::kTable1;
  EXPECT_EQ(s.Validate(), "");
  s.journal_path = "j.xml";
  EXPECT_NE(s.Validate(), "");
  s.journal_path.clear();
  s.mode = CampaignMode::kExplore;
  EXPECT_NE(s.Validate(), "");
}

// --- ShardSource dealing ----------------------------------------------------

TEST(ShardSource, DealsByFingerprintIntoADisjointCover) {
  EnsureStockTriggersRegistered();
  std::vector<CampaignJob> jobs;
  for (uint64_t i = 1; i <= 40; ++i) {
    CampaignJob job;
    job.scenario = MakeCallCountScenario("read", i, -1, 5);
    job.label = StrFormat("job-%llu", (unsigned long long)i);
    job.seed = i;
    jobs.push_back(std::move(job));
  }

  constexpr size_t kShards = 4;
  std::vector<size_t> stream_indices;
  size_t total = 0;
  for (size_t shard = 0; shard < kShards; ++shard) {
    ExhaustiveSource inner(jobs);
    ShardSource source(inner, shard, kShards);
    EXPECT_EQ(source.stream_size(), jobs.size());
    std::vector<CampaignJob> dealt = source.NextBatch(jobs.size());
    EXPECT_EQ(dealt.size(), source.size());
    total += dealt.size();
    for (const CampaignJob& job : dealt) {
      ASSERT_NE(job.stream_index, CampaignJob::kNoStreamIndex);
      // The stamped position refers back to the unsharded stream.
      EXPECT_TRUE(job.scenario == jobs[job.stream_index].scenario);
      EXPECT_EQ(job.label, jobs[job.stream_index].label);
      // Dealing is content-keyed: the assignment recomputes from the
      // scenario alone.
      EXPECT_EQ(ScenarioShard(job.scenario, kShards), shard);
      stream_indices.push_back(job.stream_index);
    }
  }
  // Union of the shards is exactly the stream, each job exactly once.
  EXPECT_EQ(total, jobs.size());
  std::sort(stream_indices.begin(), stream_indices.end());
  for (size_t i = 0; i < stream_indices.size(); ++i) {
    EXPECT_EQ(stream_indices[i], i);
  }

  // Feedback-driven sources cannot be dealt; out-of-range coordinates throw.
  ExhaustiveSource inner(jobs);
  EXPECT_THROW(ShardSource(inner, 4, 4), std::invalid_argument);
}

// --- the multi-process acceptance bar ---------------------------------------

// Runs the pbft exploration single-process and as 4 in-process shards, then
// checks the satellite property: merging the shard journals in ANY input
// order yields a bit-identical merged journal -- which is also byte-identical
// to the single-process journal -- with the same bug list and coverage at
// equal total budget, and the merged journal resumes cleanly.
TEST(ShardedCampaign, MergeIsOrderInvariantAndMatchesSingleProcess) {
  EnsureStockTriggersRegistered();
  std::string single_path = TempPath("spec_single.xml");
  std::string merged_path = TempPath("spec_merged.xml");
  RemoveCampaignArtifacts(single_path);
  RemoveCampaignArtifacts(merged_path, /*shards=*/4);

  CampaignSpec spec;
  spec.system = "pbft";
  spec.mode = CampaignMode::kExplore;
  spec.strategy = ExploreStrategy::kRandom;
  spec.budget = 12;
  spec.seed = 5;

  CampaignSpec single = spec;
  single.journal_path = single_path;
  std::string error;
  auto single_outcome = CampaignDriver(single).Run(&error);
  ASSERT_TRUE(single_outcome.has_value()) << error;

  constexpr size_t kShards = 4;
  CampaignSpec sharded = spec;
  sharded.journal_path = merged_path;
  sharded.shard_count = kShards;
  auto sharded_outcome = CampaignDriver(sharded).Run(&error);  // in-process shards
  ASSERT_TRUE(sharded_outcome.has_value()) << error;
  ASSERT_EQ(sharded_outcome->shards.size(), kShards);

  // Equal total budget, same bugs, same coverage, byte-identical journal.
  EXPECT_EQ(sharded_outcome->scenarios_run, single_outcome->scenarios_run);
  EXPECT_EQ(sharded_outcome->bugs, single_outcome->bugs);
  EXPECT_EQ(sharded_outcome->coverage.hits(), single_outcome->coverage.hits());
  std::string single_bytes = ReadFile(single_path);
  EXPECT_EQ(ReadFile(merged_path), single_bytes);

  // Every input permutation merges to the same bytes.
  std::vector<std::string> inputs;
  size_t shard_records = 0;
  for (const MergeInputStats& shard : sharded_outcome->shards) {
    inputs.push_back(shard.path);
    shard_records += shard.records;
  }
  EXPECT_EQ(shard_records, single_outcome->scenarios_run);
  std::sort(inputs.begin(), inputs.end());
  int permutation = 0;
  do {
    std::string out_path = TempPath(StrFormat("spec_perm_%d.xml", permutation).c_str());
    std::remove(out_path.c_str());
    auto merged = MergeJournals(inputs, out_path, &error);
    ASSERT_TRUE(merged.has_value()) << error;
    EXPECT_EQ(merged->bugs, single_outcome->bugs);
    EXPECT_EQ(ReadFile(out_path), single_bytes) << "permutation " << permutation;
    ++permutation;
  } while (std::next_permutation(inputs.begin(), inputs.end()) && permutation < 6);
  EXPECT_GE(permutation, 2);

  // The merged journal is a valid resumable campaign: resume replays it to
  // the same result without re-executing (and without touching the bytes).
  auto resumed =
      CampaignDriver({.mode = CampaignMode::kResume, .workers = 2, .journal_path = merged_path})
          .Run(&error);
  ASSERT_TRUE(resumed.has_value()) << error;
  EXPECT_EQ(resumed->bugs, single_outcome->bugs);
  EXPECT_EQ(resumed->coverage.hits(), single_outcome->coverage.hits());
  EXPECT_EQ(resumed->scenarios_run, single_outcome->scenarios_run);
  EXPECT_EQ(ReadFile(merged_path), single_bytes);

  // A killed orchestration leaves finished shard journals behind; re-running
  // the same spec resumes them from disk (completed shards replay entirely)
  // instead of demanding their deletion, and still merges byte-identically.
  std::remove(merged_path.c_str());
  auto rerun_outcome = CampaignDriver(sharded).Run(&error);
  ASSERT_TRUE(rerun_outcome.has_value()) << error;
  EXPECT_EQ(rerun_outcome->bugs, single_outcome->bugs);
  EXPECT_EQ(ReadFile(merged_path), single_bytes);
}

// shards > scenarios: the empty shards still write valid header-only
// journals (the satellite regression) and the merge still reconstructs the
// single-process campaign.
TEST(ShardedCampaign, MoreShardsThanScenariosLeavesValidEmptyShardJournals) {
  EnsureStockTriggersRegistered();
  std::string single_path = TempPath("spec_tiny_single.xml");
  std::string merged_path = TempPath("spec_tiny_merged.xml");
  RemoveCampaignArtifacts(single_path);
  RemoveCampaignArtifacts(merged_path, /*shards=*/8);

  CampaignSpec spec;
  spec.system = "git";
  spec.mode = CampaignMode::kExplore;
  spec.strategy = ExploreStrategy::kRandom;
  spec.budget = 3;
  spec.seed = 7;

  CampaignSpec single = spec;
  single.journal_path = single_path;
  std::string error;
  auto single_outcome = CampaignDriver(single).Run(&error);
  ASSERT_TRUE(single_outcome.has_value()) << error;
  ASSERT_EQ(single_outcome->scenarios_run, 3u);

  CampaignSpec sharded = spec;
  sharded.journal_path = merged_path;
  sharded.shard_count = 8;  // > 3 scenarios: at least five shards are empty
  auto sharded_outcome = CampaignDriver(sharded).Run(&error);
  ASSERT_TRUE(sharded_outcome.has_value()) << error;

  size_t empty_shards = 0;
  for (const MergeInputStats& shard : sharded_outcome->shards) {
    if (shard.records != 0) {
      continue;
    }
    ++empty_shards;
    // The empty shard's artifact is a loadable header-only journal whose
    // header still names the campaign (and its shard coordinates).
    auto journal = CampaignJournal::Load(shard.path, &error);
    ASSERT_TRUE(journal.has_value()) << shard.path << ": " << error;
    EXPECT_TRUE(journal->records().empty());
    EXPECT_EQ(journal->Meta("system"), "git");
    EXPECT_EQ(journal->Meta("shards"), "8");
  }
  EXPECT_GE(empty_shards, 5u);
  EXPECT_EQ(sharded_outcome->bugs, single_outcome->bugs);
  EXPECT_EQ(ReadFile(merged_path), ReadFile(single_path));
}

// Merging journals from different campaigns must be refused, not silently
// interleaved.
TEST(ShardedCampaign, MergeRejectsMismatchedCampaignIdentity) {
  EnsureStockTriggersRegistered();
  std::string a_path = TempPath("spec_merge_a.xml");
  std::string b_path = TempPath("spec_merge_b.xml");
  std::string out_path = TempPath("spec_merge_out.xml");
  std::remove(a_path.c_str());
  std::remove(b_path.c_str());
  std::remove(out_path.c_str());

  CampaignSpec spec;
  spec.system = "git";
  spec.mode = CampaignMode::kExplore;
  spec.strategy = ExploreStrategy::kRandom;
  spec.budget = 2;
  spec.seed = 1;
  spec.journal_path = a_path;
  std::string error;
  ASSERT_TRUE(CampaignDriver(spec).Run(&error).has_value()) << error;
  spec.seed = 2;  // a different campaign
  spec.journal_path = b_path;
  ASSERT_TRUE(CampaignDriver(spec).Run(&error).has_value()) << error;

  EXPECT_FALSE(MergeJournals({a_path, b_path}, out_path, &error).has_value());
  EXPECT_NE(error.find("different campaigns"), std::string::npos) << error;

  // Overlapping inputs (the same journal twice) would double-count results
  // into a journal no resume could align; refused too.
  EXPECT_FALSE(MergeJournals({a_path, a_path}, out_path, &error).has_value());
  EXPECT_NE(error.find("overlap"), std::string::npos) << error;

  // And an existing output is never clobbered.
  EXPECT_FALSE(MergeJournals({a_path}, a_path, &error).has_value());
}

// --- driver modes beyond explore --------------------------------------------

TEST(CampaignDriver, ReplayModeReproducesJournaledCrashes) {
  EnsureStockTriggersRegistered();
  std::string path = TempPath("spec_replay.xml");
  std::remove(path.c_str());

  CampaignSpec record;
  record.system = "pbft";
  record.mode = CampaignMode::kExplore;
  record.strategy = ExploreStrategy::kCoverage;
  record.budget = 12;
  record.seed = 3;
  record.journal_path = path;
  std::string error;
  auto recorded = CampaignDriver(record).Run(&error);
  ASSERT_TRUE(recorded.has_value()) << error;
  ASSERT_FALSE(recorded->bugs.empty());

  CampaignSpec replay;
  replay.mode = CampaignMode::kReplay;
  replay.journal_path = path;
  auto outcome = CampaignDriver(replay).Run(&error);
  ASSERT_TRUE(outcome.has_value()) << error;
  EXPECT_TRUE(outcome->ok);
  EXPECT_GT(outcome->replays_expected, 0u);
  EXPECT_EQ(outcome->replays_reproduced, outcome->replays_expected);
  EXPECT_FALSE(outcome->replays.empty());
}

}  // namespace
}  // namespace lfi
