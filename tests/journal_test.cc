// The persistent campaign journal: XML round trips for every serialized
// artifact (property-style, over randomized values including attribute
// escaping edge cases), journal file append/load/torn-tail semantics, the
// kill-and-resume determinism contract, disk-only replay of journaled
// injections, and JournalSource seeding/sharding.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "apps/common/campaign_driver.h"
#include "apps/common/campaign_spec.h"
#include "core/campaign_engine.h"
#include "core/exploration.h"
#include "core/injection_log.h"
#include "core/journal.h"
#include "core/scenario.h"
#include "core/stock_triggers.h"
#include "coverage/coverage.h"
#include "profiler/fault_profile.h"
#include "util/errno_codes.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace lfi {
namespace {

// Strings exercising every attribute-escaping edge the XML layer must
// survive: the five predefined entities, control characters, and the comma
// that used to make trigger-id lists ambiguous.
const char* const kNastyStrings[] = {
    "plain",          "with space",       "quo\"te",        "apos'trophe",
    "amp&ersand",     "less<than",        "greater>than",   "comma,separated",
    "new\nline",      "tab\tchar",        "ctrl\x01char",   "mixed<&\"'\x02>end",
};

std::string NastyString(Rng& rng) {
  return kNastyStrings[rng.NextBelow(std::size(kNastyStrings))];
}

const int kErrnoPool[] = {0, kEIO, kENOMEM, kEINTR, 7, 123};  // named + fallback-coded

std::string TempPath(const char* name) { return ::testing::TempDir() + name; }

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

// The pbft coverage-guided exploration most journal tests record.
CampaignSpec PbftCoverageSpec(size_t budget, const std::string& journal_path) {
  return {.system = "pbft",
          .mode = CampaignMode::kExplore,
          .strategy = ExploreStrategy::kCoverage,
          .budget = budget,
          .seed = 3,
          .journal_path = journal_path};
}

// `lfi_tool resume`: the campaign identity comes from the journal header.
std::optional<CampaignOutcome> Resume(const std::string& journal_path, int workers,
                                      std::string* error) {
  return CampaignDriver({.mode = CampaignMode::kResume, .workers = workers,
                         .journal_path = journal_path})
      .Run(error);
}

// --- property-style XML round trips ----------------------------------------

Scenario RandomScenario(Rng& rng) {
  Scenario scenario;
  size_t triggers = 1 + rng.NextBelow(3);
  for (size_t i = 0; i < triggers; ++i) {
    TriggerDecl decl;
    decl.id = NastyString(rng) + StrFormat("-%zu", i);  // unique per scenario
    decl.class_name = rng.Chance(0.5) ? "CallCountTrigger" : NastyString(rng);
    if (rng.Chance(0.5)) {
      auto args = std::make_unique<XmlNode>("args");
      args->AddChild("count")->set_text(StrFormat("%llu", (unsigned long long)rng.NextBelow(9)));
      args->AddChild("extra")->SetAttr("value", NastyString(rng));
      decl.args = std::shared_ptr<XmlNode>(args.release());
    }
    scenario.AddTrigger(std::move(decl));
  }
  size_t functions = 1 + rng.NextBelow(4);
  for (size_t i = 0; i < functions; ++i) {
    FunctionAssoc assoc;
    assoc.function = rng.Chance(0.3) ? NastyString(rng) : StrFormat("fn_%zu", i);
    assoc.argc = static_cast<int>(rng.NextBelow(4));
    if (rng.Chance(0.2)) {
      assoc.unused = true;
    } else {
      assoc.retval = rng.NextInRange(-1000000, 1000000);
      assoc.errno_value = kErrnoPool[rng.NextBelow(std::size(kErrnoPool))];
    }
    size_t refs = 1 + rng.NextBelow(scenario.triggers().size());
    for (size_t r = 0; r < refs; ++r) {
      TriggerRef ref;
      ref.ref = scenario.triggers()[rng.NextBelow(scenario.triggers().size())].id;
      ref.negate = rng.Chance(0.25);
      assoc.triggers.push_back(ref);
    }
    scenario.AddFunction(std::move(assoc));
  }
  return scenario;
}

TEST(XmlRoundTrip, RandomScenariosParseBackEqual) {
  Rng rng(2026);
  for (int iteration = 0; iteration < 100; ++iteration) {
    Scenario scenario = RandomScenario(rng);
    std::string xml = scenario.ToXml();
    std::string error;
    auto parsed = Scenario::Parse(xml, &error);
    ASSERT_TRUE(parsed.has_value()) << error << "\n" << xml;
    EXPECT_TRUE(*parsed == scenario) << xml;
    // Serialization is canonical: a second trip is byte-stable.
    EXPECT_EQ(parsed->ToXml(), xml);
  }
}

TEST(XmlRoundTrip, RandomFaultProfilesParseBackEqual) {
  Rng rng(42);
  for (int iteration = 0; iteration < 100; ++iteration) {
    FaultProfile profile(NastyString(rng));
    size_t functions = 1 + rng.NextBelow(4);
    for (size_t i = 0; i < functions; ++i) {
      FunctionProfile fn;
      fn.name = rng.Chance(0.3) ? NastyString(rng) + StrFormat("%zu", i)
                                : StrFormat("fn_%zu", i);
      size_t errors = rng.NextBelow(3);
      for (size_t e = 0; e < errors; ++e) {
        ErrorSpec spec;
        spec.retval = rng.NextInRange(-100, 0);
        size_t errnos = rng.NextBelow(3);
        for (size_t n = 0; n < errnos; ++n) {
          int value = kErrnoPool[1 + rng.NextBelow(std::size(kErrnoPool) - 1)];
          spec.errnos.push_back(value);
        }
        fn.errors.push_back(std::move(spec));
      }
      if (rng.Chance(0.5)) {
        fn.success_constants.push_back(rng.NextInRange(0, 10));
      }
      fn.has_computed_success = rng.Chance(0.5);
      profile.AddFunction(std::move(fn));
    }
    std::string xml = profile.ToXml();
    std::string error;
    auto parsed = FaultProfile::FromXml(xml, &error);
    ASSERT_TRUE(parsed.has_value()) << error << "\n" << xml;
    EXPECT_EQ(parsed->library(), profile.library());
    EXPECT_EQ(parsed->functions().size(), profile.functions().size());
    EXPECT_EQ(parsed->ToXml(), xml);
  }
}

InjectionLog RandomInjectionLog(Rng& rng) {
  InjectionLog log;
  size_t records = rng.NextBelow(4);
  for (size_t i = 0; i < records; ++i) {
    InjectionRecord record;
    record.sequence = i + 1;
    record.function = rng.Chance(0.3) ? NastyString(rng) : StrFormat("call_%zu", i);
    record.retval = rng.NextInRange(-1000, 1000);
    record.errno_value = kErrnoPool[rng.NextBelow(std::size(kErrnoPool))];
    size_t triggers = rng.NextBelow(3);
    for (size_t t = 0; t < triggers; ++t) {
      record.trigger_ids.push_back(NastyString(rng));
    }
    record.call_number = 1 + rng.NextBelow(100);
    size_t frames = rng.NextBelow(3);
    for (size_t f = 0; f < frames; ++f) {
      record.stack.push_back(StackFrame{NastyString(rng), StrFormat("frame_%zu", f),
                                        static_cast<uint32_t>(rng.NextBelow(0x1000))});
    }
    if (rng.Chance(0.5)) {
      record.process = NastyString(rng);
    }
    log.Record(std::move(record));
  }
  return log;
}

TEST(XmlRoundTrip, RandomInjectionLogsParseBackEqual) {
  Rng rng(7);
  for (int iteration = 0; iteration < 100; ++iteration) {
    InjectionLog log = RandomInjectionLog(rng);
    std::string xml = log.ToXml();
    std::string error;
    auto parsed = InjectionLog::Parse(xml, &error);
    ASSERT_TRUE(parsed.has_value()) << error << "\n" << xml;
    EXPECT_TRUE(*parsed == log) << xml;
  }
}

// The satellite regression: {"a,b"} and {"a","b"} used to serialize to the
// same comma-joined string. As a vector they must stay distinguishable.
TEST(XmlRoundTrip, CommaBearingTriggerIdsStayUnambiguous) {
  InjectionRecord joined;
  joined.sequence = 1;
  joined.function = "read";
  joined.call_number = 1;
  joined.trigger_ids = {"a,b"};
  InjectionRecord split = joined;
  split.trigger_ids = {"a", "b"};

  InjectionLog log_joined;
  log_joined.Record(joined);
  InjectionLog log_split;
  log_split.Record(split);
  ASSERT_NE(log_joined.ToXml(), log_split.ToXml());

  auto joined_back = InjectionLog::Parse(log_joined.ToXml());
  auto split_back = InjectionLog::Parse(log_split.ToXml());
  ASSERT_TRUE(joined_back && split_back);
  EXPECT_EQ(joined_back->records()[0].trigger_ids, std::vector<std::string>{"a,b"});
  EXPECT_EQ(split_back->records()[0].trigger_ids, (std::vector<std::string>{"a", "b"}));
  // The human-readable line is unchanged for the common (comma-free) case.
  EXPECT_NE(log_joined.ToString().find("triggers: a,b"), std::string::npos);
}

TEST(XmlRoundTrip, FoundBugAndRunFeedbackParseBackEqual) {
  Rng rng(11);
  for (int iteration = 0; iteration < 50; ++iteration) {
    FoundBug bug{NastyString(rng), NastyString(rng), NastyString(rng), NastyString(rng)};
    auto bug_back = FoundBug::Parse(bug.ToXml());
    ASSERT_TRUE(bug_back.has_value()) << bug.ToXml();
    EXPECT_TRUE(*bug_back == bug) << bug.ToXml();

    RunFeedback feedback;
    feedback.new_bug = rng.Chance(0.5);
    feedback.injections = rng.NextBelow(10);
    feedback.fingerprint = rng.Chance(0.5) ? NastyString(rng) : "";
    size_t blocks = rng.NextBelow(3);
    for (size_t i = 0; i < blocks; ++i) {
      feedback.new_blocks.push_back(NastyString(rng));
    }
    auto feedback_back = RunFeedback::Parse(feedback.ToXml());
    ASSERT_TRUE(feedback_back.has_value()) << feedback.ToXml();
    EXPECT_TRUE(*feedback_back == feedback) << feedback.ToXml();
  }
}

TEST(XmlRoundTrip, CoverageMapParseBackEqual) {
  CoverageMap map;
  map.RegisterBlock("app.normal", /*recovery=*/false, /*lines=*/3);
  map.RegisterBlock("app.recovery", /*recovery=*/true, /*lines=*/7);
  map.RegisterBlock("app.unhit", /*recovery=*/true, /*lines=*/2);
  map.Hit("app.normal");
  map.Hit("app.recovery");
  map.Hit("app.recovery");

  std::string error;
  auto parsed = CoverageMap::Parse(map.ToXml(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->hits(), map.hits());
  CoverageMap::Stats want = map.ComputeStats();
  CoverageMap::Stats got = parsed->ComputeStats();
  EXPECT_EQ(got.total_blocks, want.total_blocks);
  EXPECT_EQ(got.covered_blocks, want.covered_blocks);
  EXPECT_EQ(got.recovery_blocks, want.recovery_blocks);
  EXPECT_EQ(got.covered_recovery_blocks, want.covered_recovery_blocks);
  EXPECT_EQ(got.total_lines, want.total_lines);
  EXPECT_EQ(parsed->ToXml(), map.ToXml());

  // The journal's actual use: absorbing a parsed map must equal absorbing
  // the original (registrations and hit counts both carried over).
  CoverageMap absorb_original;
  absorb_original.Absorb(map);
  CoverageMap absorb_parsed;
  absorb_parsed.Absorb(*parsed);
  EXPECT_EQ(absorb_parsed.hits(), absorb_original.hits());
  EXPECT_EQ(absorb_parsed.ComputeStats().recovery_blocks,
            absorb_original.ComputeStats().recovery_blocks);
}

// --- journal file semantics -------------------------------------------------

JournalRecord MakeRecord(Rng& rng, const std::string& label) {
  JournalRecord record;
  record.label = label;
  record.seed = rng.Next();  // full-range: exercises the hex seed encoding
  record.scenario = RandomScenario(rng);
  record.result.fingerprint = NastyString(rng);
  record.result.injections = rng.NextBelow(5);
  record.result.bugs.push_back(
      FoundBug{"git", NastyString(rng), NastyString(rng), label});
  record.result.log = RandomInjectionLog(rng);
  record.result.coverage.RegisterBlock("j.block", true, 4);
  record.result.coverage.Hit("j.block");
  record.feedback.new_bug = true;
  record.feedback.injections = record.result.injections;
  record.feedback.new_blocks = {"j.block"};
  return record;
}

TEST(CampaignJournal, CreateAppendLoadRoundTrips) {
  Rng rng(5);
  std::string path = TempPath("journal_roundtrip.xml");
  JournalMetadata meta = {{"command", "explore"}, {"system", "git"}, {"note", NastyString(rng)}};

  CampaignJournal journal;
  std::string error;
  ASSERT_TRUE(journal.Create(path, meta, &error)) << error;
  std::vector<JournalRecord> written;
  for (int i = 0; i < 4; ++i) {
    written.push_back(MakeRecord(rng, StrFormat("job-%d", i)));
    ASSERT_TRUE(journal.Append(written.back()));
  }
  JournalRecord gated;
  gated.label = "gated-job";
  gated.seed = 99;
  gated.gated = true;
  gated.scenario = RandomScenario(rng);
  ASSERT_TRUE(journal.Append(gated));
  // Extent journals buffer the open extent; Finalize seals it and writes the
  // footer index (the engine does this via JournalHook::Finish).
  ASSERT_TRUE(journal.Finalize(&error)) << error;

  auto loaded = CampaignJournal::Load(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->metadata(), meta);
  EXPECT_EQ(loaded->Meta("system"), "git");
  ASSERT_EQ(loaded->records().size(), 5u);
  for (size_t i = 0; i < written.size(); ++i) {
    const JournalRecord& got = loaded->records()[i];
    EXPECT_EQ(got.label, written[i].label);
    EXPECT_EQ(got.seed, written[i].seed);
    EXPECT_FALSE(got.gated);
    EXPECT_TRUE(got.scenario == written[i].scenario);
    EXPECT_EQ(got.result.fingerprint, written[i].result.fingerprint);
    EXPECT_EQ(got.result.injections, written[i].result.injections);
    ASSERT_EQ(got.result.bugs.size(), written[i].result.bugs.size());
    EXPECT_TRUE(got.result.bugs[0] == written[i].result.bugs[0]);
    EXPECT_TRUE(got.result.log == written[i].result.log);
    EXPECT_EQ(got.result.coverage.hits(), written[i].result.coverage.hits());
    EXPECT_TRUE(got.feedback == written[i].feedback);
  }
  EXPECT_TRUE(loaded->records()[4].gated);
  EXPECT_EQ(loaded->records()[4].label, "gated-job");
}

TEST(CampaignJournal, TornTrailingRecordIsDropped) {
  Rng rng(6);
  std::string path = TempPath("journal_torn.xml");
  CampaignJournal journal;
  // Torn-XML surgery below: this test is about the XML torn-tail scan, so
  // pin the debug encoding (extent recovery is covered in extent_journal_test).
  ASSERT_TRUE(journal.Create(path, {{"command", "explore"}, {"system", "git"}}, nullptr,
                             JournalFormat::kXml));
  ASSERT_TRUE(journal.Append(MakeRecord(rng, "complete-1")));
  ASSERT_TRUE(journal.Append(MakeRecord(rng, "complete-2")));
  {
    // A kill mid-write leaves a half-serialized record at the tail.
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "<record label=\"torn\" seed=\"0x1\">\n  <scenario>\n    <trigger id=\"x";
  }
  std::string error;
  auto loaded = CampaignJournal::Load(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_EQ(loaded->records().size(), 2u);
  EXPECT_EQ(loaded->records()[1].label, "complete-2");

  // Header-only journals (killed before the first merge) load too.
  std::string empty_path = TempPath("journal_headeronly.xml");
  CampaignJournal header_only;
  ASSERT_TRUE(header_only.Create(empty_path, {{"command", "explore"}}));
  auto empty = CampaignJournal::Load(empty_path, &error);
  ASSERT_TRUE(empty.has_value()) << error;
  EXPECT_TRUE(empty->records().empty());
}

// A meta-less header is a self-closing element; a kill during the first
// record used to defeat the torn-tail scan (the backwards "/>" search
// latched onto a self-closing element inside the torn record and kept the
// garbage). An empty shard journal killed mid-append is exactly this shape.
TEST(CampaignJournal, TornTailAfterSelfClosingHeaderIsDropped) {
  std::string path = TempPath("journal_metaless_torn.xml");
  CampaignJournal journal;
  ASSERT_TRUE(journal.Create(path, {}, nullptr, JournalFormat::kXml));
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "<record label=\"torn\" seed=\"0x1\">\n  <scenario>\n    <trigger id=\"x\" />\n";
  }
  std::string error;
  auto loaded = CampaignJournal::Load(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_TRUE(loaded->records().empty());
}

// shards > records: the empty shard still streams (zero jobs) and a
// journaled engine run over it still writes a valid header-only journal
// that loads and reopens downstream.
TEST(JournalSource, EmptyShardYieldsAValidHeaderOnlyJournal) {
  EnsureStockTriggersRegistered();
  Rng rng(12);
  std::string path = TempPath("journal_empty_shard_src.xml");
  CampaignJournal journal;
  ASSERT_TRUE(journal.Create(path, {{"command", "explore"}, {"system", "git"}}));
  ASSERT_TRUE(journal.Append(MakeRecord(rng, "only-record")));
  std::string error;
  ASSERT_TRUE(journal.Finalize(&error)) << error;
  auto loaded = CampaignJournal::Load(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;

  JournalSource::Options options;
  options.shard_index = 3;
  options.shard_count = 8;  // > 1 record: this shard is empty
  JournalSource source(*loaded, options);
  EXPECT_EQ(source.size(), 0u);

  std::string shard_path = TempPath("journal_empty_shard_out.xml");
  std::remove(shard_path.c_str());
  CampaignEngine::Options engine_options;
  engine_options.journal_path = shard_path;
  engine_options.journal_meta = {{"command", "explore"}, {"system", "git"},
                                 {"shard", "3"},         {"shards", "8"}};
  CampaignEngine engine(engine_options);
  ExplorationResult result =
      engine.Run(source, [](const CampaignJob&) { return JobResult{}; });
  EXPECT_EQ(result.scenarios_run, 0u);

  auto shard_journal = CampaignJournal::Load(shard_path, &error);
  ASSERT_TRUE(shard_journal.has_value()) << error;
  EXPECT_TRUE(shard_journal->records().empty());
  EXPECT_EQ(shard_journal->Meta("shard"), "3");
  // And the empty artifact merges (alone or with siblings) without fuss.
  std::string merged_path = TempPath("journal_empty_shard_merged.xml");
  std::remove(merged_path.c_str());
  auto merged = MergeJournals({shard_path, path}, merged_path, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  auto merged_journal = CampaignJournal::Load(merged_path, &error);
  ASSERT_TRUE(merged_journal.has_value()) << error;
  EXPECT_EQ(merged_journal->records().size(), 1u);
}

// --- kill-and-resume determinism (the acceptance bar) ----------------------

// Runs the coverage-guided pbft exploration journaled, simulates a kill
// after `keep` merged records by rewriting the journal to that prefix, then
// resumes at several worker counts: the final bug list and coverage must be
// bit-identical to the uninterrupted run, and the resumed journal must have
// re-grown to the full record count.
TEST(CampaignJournal, KillAndResumeIsBitIdenticalAtAnyWorkerCount) {
  EnsureStockTriggersRegistered();
  std::string full_path = TempPath("journal_full.xml");
  std::remove(full_path.c_str());

  CampaignSpec spec = PbftCoverageSpec(12, full_path);
  CampaignOutcome uninterrupted = Drive(spec);
  ASSERT_FALSE(uninterrupted.bugs.empty());

  std::string error;
  auto full = CampaignJournal::Load(full_path, &error);
  ASSERT_TRUE(full.has_value()) << error;
  ASSERT_EQ(full->records().size(), 12u);

  for (int workers : {1, 2, 8}) {
    for (size_t keep : {size_t{0}, size_t{5}, size_t{11}}) {
      // The kill artifact: the first `keep` records, plus a torn tail.
      std::string partial_path =
          TempPath(StrFormat("journal_partial_%d_%zu.xml", workers, keep).c_str());
      {
        // Scoped: the journal must be closed (extent mode: sealed) before the
        // torn tail is appended and the resume below rewrites the file.
        CampaignJournal partial;
        ASSERT_TRUE(partial.Create(partial_path, full->metadata(), &error)) << error;
        for (size_t i = 0; i < keep; ++i) {
          ASSERT_TRUE(partial.Append(full->records()[i]));
        }
        ASSERT_TRUE(partial.Finalize(&error)) << error;
      }
      {
        std::ofstream out(partial_path, std::ios::app | std::ios::binary);
        out << "<record label=\"torn";
      }

      CampaignSpec resume_spec = spec;
      resume_spec.workers = workers;
      resume_spec.journal_path = partial_path;
      resume_spec.resume = true;
      CampaignOutcome resumed = Drive(resume_spec);

      ExpectSameBugs(uninterrupted.bugs, resumed.bugs);
      EXPECT_EQ(uninterrupted.coverage.hits(), resumed.coverage.hits());
      EXPECT_EQ(uninterrupted.scenarios_run, resumed.scenarios_run);

      auto regrown = CampaignJournal::Load(partial_path, &error);
      ASSERT_TRUE(regrown.has_value()) << error;
      EXPECT_EQ(regrown->records().size(), 12u);
    }
  }
}

// Resume mode reconstructs the whole configuration from the journal header
// alone (what `lfi_tool resume` runs).
TEST(CampaignJournal, ResumeModeReadsConfigFromHeader) {
  EnsureStockTriggersRegistered();
  std::string path = TempPath("journal_header_resume.xml");
  std::remove(path.c_str());

  CampaignOutcome uninterrupted = Drive(PbftCoverageSpec(12, path));

  std::string error;
  auto resumed = Resume(path, /*workers=*/2, &error);
  ASSERT_TRUE(resumed.has_value()) << error;
  ExpectSameBugs(uninterrupted.bugs, resumed->bugs);
  EXPECT_EQ(uninterrupted.coverage.hits(), resumed->coverage.hits());
}

// Resuming a journal recorded under a different campaign identity must be
// refused, not silently diverge -- including a key recorded on one side
// only: a plain journal resumed as an epoch-len campaign, and the reverse.
// The budget is one batch, so the job streams agree and only the identity
// check can refuse.
TEST(CampaignJournal, ResumeRejectsMismatchedCampaignIdentity) {
  EnsureStockTriggersRegistered();
  auto expect_refused = [](const CampaignSpec& recorded, CampaignSpec resumed) {
    std::remove(recorded.journal_path.c_str());
    Drive(recorded);
    resumed.resume = true;
    std::string error;
    EXPECT_FALSE(CampaignDriver(resumed).Run(&error).has_value());
    EXPECT_NE(error.find("resuming it would diverge"), std::string::npos) << error;
  };

  CampaignSpec plain = PbftCoverageSpec(8, TempPath("journal_mismatch.xml"));
  CampaignSpec different_seed = plain;
  different_seed.seed = 4;
  expect_refused(plain, different_seed);

  CampaignSpec as_epoch = plain;
  as_epoch.epoch_len = 2;
  expect_refused(plain, as_epoch);

  CampaignSpec epoch = PbftCoverageSpec(8, TempPath("journal_mismatch_epoch.xml"));
  epoch.epoch_len = 2;
  CampaignSpec as_plain = epoch;
  as_plain.epoch_len = 0;
  expect_refused(epoch, as_plain);
}

// The Table 1 (open-loop) path journals and resumes too.
TEST(CampaignJournal, GitCampaignJournalsAndResumes) {
  EnsureStockTriggersRegistered();
  std::string path = TempPath("journal_git_campaign.xml");
  std::remove(path.c_str());

  std::vector<FoundBug> uninterrupted =
      Drive({.system = "git", .mode = CampaignMode::kTable1, .journal_path = path}).bugs;
  ASSERT_FALSE(uninterrupted.empty());

  std::string error;
  auto full = CampaignJournal::Load(path, &error);
  ASSERT_TRUE(full.has_value()) << error;
  ASSERT_GT(full->records().size(), 4u);

  // Kill artifact: keep a 3-record prefix, then resume through the header.
  std::string partial_path = TempPath("journal_git_partial.xml");
  CampaignJournal partial;
  ASSERT_TRUE(partial.Create(partial_path, full->metadata(), &error)) << error;
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(partial.Append(full->records()[i]));
  }
  auto resumed = Resume(partial_path, /*workers=*/2, &error);
  ASSERT_TRUE(resumed.has_value()) << error;
  ExpectSameBugs(uninterrupted, resumed->bugs);
}

// --- the shared fold ---------------------------------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// Merging one journal re-runs the campaign's fold (MergeFoldState::Fold)
// over its records from an empty state: the dedup, the recomputed feedback
// and the gating must reproduce the journal byte for byte, whichever path
// wrote it -- the open-loop Table 1 fold with gated records, the batched
// feedback fold, the epoch-deferred fold, and a killed-then-resumed run.
TEST(MergeJournals, SingleInputMergeReproducesTheJournal) {
  EnsureStockTriggersRegistered();
  auto expect_merge_identity = [](const std::string& path) {
    std::string merged_path = path + ".merged";
    std::remove(merged_path.c_str());
    std::string error;
    ASSERT_TRUE(MergeJournals({path}, merged_path, &error).has_value()) << error;
    EXPECT_EQ(ReadFile(merged_path), ReadFile(path)) << path;
  };
  std::string error;

  // Non-exhaustive Table 1: pbft's fuzz phase stops at the max_bugs gate.
  std::string table1 = TempPath("fold_table1.lfij");
  std::remove(table1.c_str());
  Drive({.system = "pbft", .mode = CampaignMode::kTable1, .journal_path = table1});
  auto table1_journal = CampaignJournal::Load(table1, &error);
  ASSERT_TRUE(table1_journal.has_value()) << error;
  size_t gated = 0;
  for (const JournalRecord& record : table1_journal->records()) {
    gated += record.gated ? 1 : 0;
  }
  EXPECT_GT(gated, 0u);
  expect_merge_identity(table1);

  std::string coverage = TempPath("fold_coverage.lfij");
  std::remove(coverage.c_str());
  Drive(PbftCoverageSpec(24, coverage));
  expect_merge_identity(coverage);

  CampaignSpec epoch = PbftCoverageSpec(24, TempPath("fold_epoch.lfij"));
  epoch.epoch_len = 2;
  std::remove(epoch.journal_path.c_str());
  Drive(epoch);
  expect_merge_identity(epoch.journal_path);

  // The kill artifact: the first sealed extent (a kill loses the open one)
  // plus a torn tail, resumed to completion.
  auto full = CampaignJournal::Load(coverage, &error);
  ASSERT_TRUE(full.has_value()) << error;
  ASSERT_GT(full->records().size(), 16u);
  std::string resumed = TempPath("fold_resumed.lfij");
  {
    CampaignJournal partial;
    ASSERT_TRUE(partial.Create(resumed, full->metadata(), &error)) << error;
    for (size_t i = 0; i < 16; ++i) {
      ASSERT_TRUE(partial.Append(full->records()[i]));
    }
    ASSERT_TRUE(partial.Finalize(&error)) << error;
  }
  {
    std::ofstream out(resumed, std::ios::app | std::ios::binary);
    out << "torn";
  }
  CampaignSpec resume = PbftCoverageSpec(24, resumed);
  resume.resume = true;
  Drive(resume);
  EXPECT_EQ(ReadFile(resumed), ReadFile(coverage));
  expect_merge_identity(resumed);
}

// --- disk-only replay -------------------------------------------------------

// Every journaled record that exposed a bug must reproduce its crash site
// from the journal alone: fresh process state, scenario rebuilt with the
// stock call-count trigger from the serialized injection log.
TEST(CampaignJournal, ReplayReproducesEveryJournaledCrashSiteFromDisk) {
  EnsureStockTriggersRegistered();
  std::string path = TempPath("journal_replay.xml");
  std::remove(path.c_str());

  CampaignOutcome result = Drive(PbftCoverageSpec(12, path));
  ASSERT_FALSE(result.bugs.empty());

  std::string error;
  auto journal = CampaignJournal::Load(path, &error);
  ASSERT_TRUE(journal.has_value()) << error;
  CampaignEngine::ResultRunner runner = SystemJobRunner(journal->Meta("system"));
  ASSERT_TRUE(runner != nullptr);

  size_t bug_records = 0;
  for (const JournalRecord& record : journal->records()) {
    if (record.result.bugs.empty()) {
      continue;
    }
    ASSERT_FALSE(record.result.log.empty()) << record.label;
    ++bug_records;
    CampaignJob job;
    job.scenario = record.result.log.ReplayScenario(record.result.log.size() - 1);
    job.label = "replay " + record.label;
    job.seed = record.seed;
    JobResult replayed = runner(job);
    ASSERT_FALSE(replayed.bugs.empty()) << record.label;
    bool reproduced = false;
    for (const FoundBug& want : record.result.bugs) {
      for (const FoundBug& got : replayed.bugs) {
        reproduced |= want.system == got.system && want.kind == got.kind &&
                      want.where == got.where;
      }
    }
    EXPECT_TRUE(reproduced) << record.label;
  }
  EXPECT_GT(bug_records, 0u);
}

// --- JournalSource: seeding and sharding ------------------------------------

TEST(JournalSource, ReseedsACampaignAndShardsItLosslessly) {
  EnsureStockTriggersRegistered();
  std::string path = TempPath("journal_source.xml");
  std::remove(path.c_str());

  CampaignOutcome original = Drive(PbftCoverageSpec(12, path));

  std::string error;
  auto journal = CampaignJournal::Load(path, &error);
  ASSERT_TRUE(journal.has_value()) << error;
  CampaignEngine::ResultRunner runner = SystemJobRunner("pbft");

  // Re-running the journaled scenarios through the same harness reproduces
  // the original campaign's results.
  JournalSource reseed(*journal);
  EXPECT_EQ(reseed.size(), 12u);
  CampaignEngine engine;
  ExplorationResult rerun = engine.Run(reseed, runner);
  ExpectSameBugs(original.bugs, rerun.bugs);
  EXPECT_EQ(original.coverage.hits(), rerun.coverage.hits());

  // Sharding: two half-streams whose union covers exactly the recorded
  // scenario sequence and finds the same crash sites.
  std::set<std::tuple<std::string, std::string, std::string>> full_sites;
  for (const FoundBug& bug : original.bugs) {
    full_sites.insert({bug.system, bug.kind, bug.where});
  }
  std::set<std::tuple<std::string, std::string, std::string>> shard_sites;
  size_t shard_jobs = 0;
  for (size_t shard = 0; shard < 2; ++shard) {
    JournalSource::Options options;
    options.shard_index = shard;
    options.shard_count = 2;
    JournalSource source(*journal, options);
    shard_jobs += source.size();
    ExplorationResult result = engine.Run(source, runner);
    for (const FoundBug& bug : result.bugs) {
      shard_sites.insert({bug.system, bug.kind, bug.where});
    }
  }
  EXPECT_EQ(shard_jobs, 12u);
  EXPECT_EQ(shard_sites, full_sites);

  EXPECT_THROW(JournalSource(*journal, JournalSource::Options{2, 2, false}),
               std::invalid_argument);
}

// --- the doctor's campaign-identity surface ---------------------------------

// `lfi_tool journal doctor` flags a campaign identity that names a system
// this build cannot re-run. The decision surface it consults lives here in
// the library: a bfs identity must round-trip through a journal header into
// a valid spec and resolve a job runner, while an unknown system must fail
// all three -- the doctor's unknown-system issue and resume/replay's refusal
// key off exactly these checks.
TEST(CampaignJournal, DoctorIdentitySurfaceRecognizesBfsAndRefusesUnknown) {
  CampaignSpec spec;
  spec.system = "bfs";
  spec.mode = CampaignMode::kExplore;
  spec.strategy = ExploreStrategy::kCoverage;
  spec.budget = 16;
  spec.seed = 9;
  spec.journal_path = TempPath("journal_bfs_identity.xml");
  EXPECT_EQ(spec.Validate(), "");

  std::remove(spec.journal_path.c_str());
  CampaignJournal journal;
  std::string error;
  ASSERT_TRUE(journal.Create(spec.journal_path, spec.ToJournalMeta(), &error)) << error;
  ASSERT_TRUE(journal.Finalize(&error)) << error;
  auto loaded = CampaignJournal::Load(spec.journal_path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->Meta("system"), "bfs");
  auto parsed = CampaignSpec::FromJournalMeta(loaded->metadata(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->system, "bfs");
  EXPECT_EQ(parsed->Validate(), "");
  EXPECT_TRUE(IsCampaignSystem("bfs"));
  EXPECT_TRUE(SystemJobRunner("bfs") != nullptr);

  // An identity naming a system this build does not know: not a member, no
  // runner, and a spec parsed from it does not validate as runnable.
  EXPECT_FALSE(IsCampaignSystem("zfs"));
  EXPECT_TRUE(SystemJobRunner("zfs") == nullptr);
  JournalMetadata unknown = spec.ToJournalMeta();
  for (auto& [key, value] : unknown) {
    if (key == "system") {
      value = "zfs";
    }
  }
  auto refused = CampaignSpec::FromJournalMeta(unknown, &error);
  EXPECT_TRUE(!refused.has_value() || !refused->Validate().empty());
}

}  // namespace
}  // namespace lfi
