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
// a spec with shard_count > 1 and no shard_index makes Run() orchestrate,
// and there is one orchestrator for every shardable spec. It runs the epoch
// protocol: a master enumerates the spec's job stream one epoch at a time;
// every shard child rebuilds the same stream (from the epoch's frontier
// snapshot when the source is feedback-driven) and runs the share dealt to
// it by scenario fingerprint (core/exploration.h ShardSource); the epoch's
// shard journals are then merged (core/journal.h MergeRecordsInto) into
// spec.journal_path, a valid, resumable single-process journal. An
// open-loop spec (Table 1, exhaustive or random explore; epoch_len 0) is a
// one-epoch campaign whose children write spec.ShardJournalPath(i); an
// epoch-len coverage spec writes spec.EpochShardJournalPath(e, i) per epoch.
// Children are spawned `lfi_tool run-spec` processes (set_tool_path) or
// forked from this process without exec.

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
  // Shard orchestration: one entry per shard, tallied from its merged
  // journals (an epoch campaign's row names them "<journal>.epoch*.shard<i>").
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
  // (the default) forks each child from this process without exec -- same
  // results, same supervision.
  void set_tool_path(std::string path) { tool_path_ = std::move(path); }

  const CampaignSpec& spec() const { return spec_; }

  // Executes the spec. Returns nullopt with *error set on invalid specs,
  // unusable journals, or failed shard children; engine exceptions
  // (journal divergence, I/O) are surfaced the same way.
  std::optional<CampaignOutcome> Run(std::string* error = nullptr);

 private:
  // A single-process run of the spec's job stream; a shard child runs only
  // its dealt share of it.
  std::optional<CampaignOutcome> RunLocal(std::string* error);
  std::optional<CampaignOutcome> RunResume(std::string* error);
  std::optional<CampaignOutcome> RunReplay(std::string* error);
  // The one multi-process path (shard_count > 1, no shard_index): the epoch
  // loop docs/architecture.md specifies -- enumerate an epoch from the
  // master stream, run one child per shard, merge, feed back, repeat --
  // producing a merged journal byte-identical to the single-process run's.
  std::optional<CampaignOutcome> RunOrchestration(std::string* error);

  CampaignSpec spec_;
  std::string tool_path_;
};

// The per-system JobResult runner campaigns stream through: the default
// workload harness that `lfi_tool replay` and JournalSource-seeded runs use
// to execute a journaled scenario. `explore_workload` selects the (larger)
// exploration workload where the two differ (pbft). Null for unknown systems.
CampaignEngine::ResultRunner SystemJobRunner(const std::string& system,
                                             bool explore_workload = true);

// Merges journals through MergeJournals into an extent journal and reports
// the result as a CampaignOutcome (`lfi_tool merge`).
std::optional<CampaignOutcome> MergeCampaignJournals(const std::vector<std::string>& inputs,
                                                     const std::string& output_path,
                                                     std::string* error = nullptr);

}  // namespace lfi

#endif  // LFI_APPS_COMMON_CAMPAIGN_DRIVER_H_
