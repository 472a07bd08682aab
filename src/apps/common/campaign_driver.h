// The campaign driver: the public campaign API, one executor for every
// CampaignSpec.
//
// CampaignDriver owns everything a campaign needs wiring: source
// construction (the Table 1 job lists or an exploration strategy), engine
// options, journal creation/resume, replay, and result reporting. Run()
// returns one CampaignOutcome -- bugs, cumulative coverage, the journal
// artifact, and per-shard/per-replay accounting -- whatever the mode.
// lfi_tool, the benches and the tests run their campaigns through it; the
// engine underneath (core/campaign_engine.h) has the one entry point
// CampaignEngine::Run(ScenarioSource&, runner).
//
// Multi-process campaigns are a property of the spec, not separate wiring:
// a spec with shard_count > 1 and no shard_index makes Run() orchestrate --
// every shard executes the same deterministic spec with shard=i/N (dealt by
// scenario fingerprint, core/exploration.h ShardSource) into
// spec.ShardJournalPath(i), either as spawned `lfi_tool run-spec` child
// processes (set_tool_path) or in-process, and the per-shard journals are
// then merged (core/journal.h MergeJournals) into spec.journal_path as a
// valid, resumable single-process journal.

#ifndef LFI_APPS_COMMON_CAMPAIGN_DRIVER_H_
#define LFI_APPS_COMMON_CAMPAIGN_DRIVER_H_

#include <optional>
#include <string>
#include <vector>

#include "apps/common/campaign_spec.h"
#include "core/campaign_engine.h"
#include "core/journal.h"

namespace lfi {

// One journaled injection re-run by replay mode.
struct ReplayOutcome {
  size_t record = 0;     // journal record index
  size_t injection = 0;  // injection index within the record's log
  std::string function;  // what was re-injected, for reporting
  uint64_t call_number = 0;
  bool crashed = false;     // the re-run exposed a bug
  std::string where;        // its crash site, when it did
  bool recorded_bug = false;  // the journal record had exposed a bug
  bool distributed = false;   // the record's log spans several processes
  bool informational = false;  // no reproduction expectation (clean or
                               // multi-process record); excluded from ok
  bool reproduced = false;  // a recorded crash site was matched
};

// What a driven campaign yields, whatever the mode.
struct CampaignOutcome {
  std::vector<FoundBug> bugs;
  CoverageMap coverage;
  size_t scenarios_run = 0;
  // The journal written (table1/explore/shard) or consumed (resume/replay);
  // "" when the run was not journaled.
  std::string journal_path;
  // The journal header (resume/replay/shard: what the artifact records).
  JournalMetadata metadata;
  // Shard orchestration: one entry per shard, from its merged journal.
  std::vector<MergeInputStats> shards;
  // Replay mode: per-injection detail plus the pass/fail summary.
  std::vector<ReplayOutcome> replays;
  size_t replays_expected = 0;
  size_t replays_reproduced = 0;
  // False only when replay mode failed to reproduce an expected crash site.
  bool ok = true;
};

class CampaignDriver {
 public:
  explicit CampaignDriver(CampaignSpec spec) : spec_(std::move(spec)) {}

  // Path to the lfi_tool binary (argv[0]): shard orchestration spawns
  // `<tool_path> run-spec <spec.xml>` child processes, one per shard. Empty
  // (the default) runs the shards in-process, sequentially -- same results,
  // no process isolation.
  void set_tool_path(std::string path) { tool_path_ = std::move(path); }

  const CampaignSpec& spec() const { return spec_; }

  // Executes the spec. Returns nullopt with *error set on invalid specs,
  // unusable journals, or failed shard children; engine exceptions
  // (journal divergence, I/O) are surfaced the same way.
  std::optional<CampaignOutcome> Run(std::string* error = nullptr);

 private:
  std::optional<CampaignOutcome> RunTable1(std::string* error);
  std::optional<CampaignOutcome> RunExplore(std::string* error);
  std::optional<CampaignOutcome> RunResume(std::string* error);
  std::optional<CampaignOutcome> RunReplay(std::string* error);
  std::optional<CampaignOutcome> RunShardOrchestration(std::string* error);
  // Epoch-synchronized distributed coverage-guided exploration (the spec has
  // shard_count > 1, the coverage strategy, and epoch_len > 0): runs the
  // spawn -> merge -> reseed loop docs/architecture.md specifies, producing a
  // merged journal byte-identical to the single-process --epoch-len run.
  std::optional<CampaignOutcome> RunEpochOrchestration(std::string* error);
  // Runs one child campaign per spec under the ShardSupervisor
  // (apps/common/shard_supervisor.h): exec'd `lfi_tool run-spec` processes
  // when the tool path is known, fork-without-exec child processes
  // otherwise (threads on non-POSIX). The supervisor applies the spec's
  // deadline/retry/backoff policy; `jobs_hint` (jobs a child may run, 0 =
  // unknown) sizes the derived per-child deadline when the spec sets
  // job_timeout_ms but no child_timeout_ms. False + *error when a child
  // exhausts its retries.
  bool RunShardChildren(const std::vector<CampaignSpec>& children, size_t jobs_hint,
                        std::string* error);

  CampaignSpec spec_;
  std::string tool_path_;
};

// The per-system JobResult runner campaigns stream through: the default
// workload harness that `lfi_tool replay` and JournalSource-seeded runs use
// to execute a journaled scenario. `explore_workload` selects the (larger)
// exploration workload where the two differ (pbft). Null for unknown systems.
CampaignEngine::ResultRunner SystemJobRunner(const std::string& system,
                                             bool explore_workload = true);

// Merges journals through MergeJournals and reports the result as a
// CampaignOutcome (`lfi_tool merge`). `format` picks the output encoding;
// nullopt keeps the first input's.
std::optional<CampaignOutcome> MergeCampaignJournals(
    const std::vector<std::string>& inputs, const std::string& output_path,
    std::string* error = nullptr, std::optional<JournalFormat> format = std::nullopt);

}  // namespace lfi

#endif  // LFI_APPS_COMMON_CAMPAIGN_DRIVER_H_
