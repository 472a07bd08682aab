// The parallel campaign engine.
//
// The §7.1 campaign ("LFI entirely on its own") is embarrassingly parallel:
// every generated scenario is an independent controller run against a fresh
// instance of the target. The engine exploits that. Its one entry point,
// Run(ScenarioSource&, runner), streams CampaignJobs from a source
// (core/exploration.h) -- the analyzer's job list (ExhaustiveSource), a
// random sweep, or the coverage-guided feedback loop -- shards them across a
// work-stealing worker pool, runs each through its own TestController, and
// folds the results in *job order* no matter which worker finishes first.
//
// The fold (MergeFoldState::Fold, core/journal.h) is the campaign's
// crash-site dedup plus the per-job RunFeedback -- the bugs, the injection
// fingerprint, and the coverage blocks that run covered for the first time.
// Jobs carry a per-scenario RNG seed that Runtime::Options threads to the
// triggers, so an N-worker run returns a bug list bit-identical to the
// 1-worker (serial) baseline.
//
// Open-loop sources are drained up front and run as one batch-free pass.
// Feedback-driven sources (coverage-guided exploration) are pulled in
// fixed-size batches; each batch runs through the same parallel
// execute-and-fold step, and feedback reaches the source in job order at the
// merge point, before the next batch is pulled. The batch size is
// independent of the worker count, so the same seed + strategy produces a
// bit-identical bug list at any parallelism. CampaignDriver
// (apps/common/campaign_driver.h) is the public campaign API built on top.

#ifndef LFI_CORE_CAMPAIGN_ENGINE_H_
#define LFI_CORE_CAMPAIGN_ENGINE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/runtime.h"
#include "core/scenario.h"
#include "coverage/coverage.h"
#include "image/image.h"
#include "profiler/fault_profile.h"

namespace lfi {

class ScenarioSource;

// Header fields of a campaign journal (core/journal.h): what a fresh journal
// records about the campaign's identity, and what `lfi_tool resume` reads
// back to reconstruct it.
using JournalMetadata = std::vector<std::pair<std::string, std::string>>;

// Epoch sentinel: "not part of an epoch-synchronized campaign". Epochs are
// the synchronization unit of distributed coverage-guided exploration
// (docs/architecture.md): feedback reaches the scenario source only at epoch
// boundaries, and journal records remember which epoch produced them so a
// resumed orchestrator can reconstruct the schedule.
inline constexpr size_t kNoEpoch = static_cast<size_t>(-1);

// On-disk encoding of a campaign journal. Both encodings carry the same
// records and metadata and are freely convertible (`lfi_tool journal
// convert`); readers auto-detect the encoding from the file's first bytes,
// so the format is a property of the artifact, never of the campaign
// identity. kExtent (core/extent_journal.h, docs/journal-format.md) is the
// default for new journals; kXml is kept as the human-readable debug and
// interchange encoding.
enum class JournalFormat {
  kExtent,  // binary: CRC-checked, optionally compressed extents + footer index
  kXml,     // the original append-only XML stream
};

const char* JournalFormatName(JournalFormat format);
std::optional<JournalFormat> ParseJournalFormat(const std::string& name);

// A bug exposed by the campaign, deduplicated by crash site: two injections
// crashing at the same place in the same system are one bug (Table 1 counts
// distinct sites, not distinct scenarios).
struct FoundBug {
  std::string system;    // "git", "mysql", "bind", "pbft", "bfs"
  std::string kind;      // "SIGSEGV", "double mutex unlock", "data loss", ...
  std::string where;     // crash site / corruption description
  std::string injected;  // the fault that exposed it, e.g. "opendir=NULL@list_branches"
  bool operator<(const FoundBug& o) const {
    return std::tie(system, kind, where) < std::tie(o.system, o.kind, o.where);
  }
  bool operator==(const FoundBug& o) const = default;

  // XML round trip (<bug system kind where injected/>), used by campaign
  // journal records.
  void AppendXml(XmlNode* parent) const;
  std::string ToXml() const;
  static std::optional<FoundBug> FromNode(const XmlNode& node, std::string* error = nullptr);
  static std::optional<FoundBug> Parse(const std::string& xml, std::string* error = nullptr);
};

// Everything one job's run reports back to the streaming engine: the bugs it
// exposed plus the observations the feedback loop runs on. The coverage map
// is the job's own (the application instance's), merged into the cumulative
// exploration map at the deterministic job-order merge point.
struct JobResult {
  std::vector<FoundBug> bugs;
  CoverageMap coverage;
  std::string fingerprint;  // InjectionLog::Fingerprint + crash site, "" = clean run
  size_t injections = 0;
  // The run's full injection log. Persisted by the campaign journal so any
  // recorded injection can be replayed from disk (InjectionLog::
  // ReplayScenario) without re-running the original campaign.
  InjectionLog log;
};

// One schedulable unit: a scenario plus everything needed to attribute and
// reproduce its outcome.
struct CampaignJob {
  static constexpr size_t kNoStreamIndex = static_cast<size_t>(-1);

  Scenario scenario;
  std::string label;  // FoundBug::injected for bugs this job exposes
  uint64_t seed = 0;  // Runtime::Options::seed; 0 = scenario's own seeds
  // Global position in the campaign's deterministic scenario stream. Sharded
  // sources (ShardSource) stamp it so a shard's journal remembers where each
  // job sat in the unsharded stream and MergeJournals can interleave shard
  // records back into single-process merge order. kNoStreamIndex makes the
  // journal fall back to the engine's own merge index.
  size_t stream_index = kNoStreamIndex;
  // Self-contained jobs (different workload or harness than the campaign
  // default, e.g. bind's dst_lib_init sweep) override the campaign-wide
  // runner.
  std::function<JobResult(const CampaignJob&)> explore;
  // Subject to CampaignEngine::Options::max_bugs: the job is skipped once
  // the bugs merged so far (in job order) reach the cap. Models the serial
  // campaigns' "keep fuzzing until N bugs" loops deterministically.
  bool skip_when_saturated = false;
};

// What a streamed run yields beyond the bug list: the union of every job's
// coverage map and how many scenarios actually executed (gated jobs do not
// count).
struct ExplorationResult {
  std::vector<FoundBug> bugs;
  CoverageMap coverage;
  size_t scenarios_run = 0;
};

class CampaignEngine {
 public:
  struct Options {
    // The batch size every spec-driven campaign runs with (CampaignSpec has
    // no batch-size knob): epoch arithmetic -- epoch_len is measured in
    // batches -- must agree between the engine and the distributed
    // orchestrator, so both read it here.
    static constexpr size_t kDefaultBatchSize = 8;

    int workers = 1;      // <= 0: one worker per hardware thread
    size_t max_bugs = 0;  // 0 = run everything; else gate skip_when_saturated jobs
    // Jobs pulled from a ScenarioSource per batch. Part of the determinism
    // contract: the next batch is pulled only once the previous one folded
    // and its feedback was delivered, so the batch size -- never the worker
    // count -- decides what a feedback-driven strategy knows when it
    // schedules the next jobs.
    size_t batch_size = kDefaultBatchSize;
    // Non-empty: persist every merged job -- scenario, injection log,
    // fingerprint, bugs, coverage delta -- to an append-only campaign
    // journal at this path (core/journal.h). Records are appended at the
    // deterministic merge point and flushed one by one, so a killed run
    // loses at most the record being written.
    std::string journal_path = {};
    // With journal_path set: load the journal first and replay its records
    // instead of executing the corresponding jobs -- the source still
    // streams and receives feedback exactly as live, so its state (dedup,
    // mutation queues, saturation) ends up where the killed run left off,
    // and execution resumes at the first unjournaled job. The final result
    // is bit-identical to an uninterrupted run at any worker count.
    bool resume = false;
    // Header fields for a fresh journal (campaign identity: system,
    // strategy, budget, seed). On resume the loaded header wins; a key
    // present on one side only, or a differing value, is an error
    // (CampaignIdentityMismatch, core/journal.h).
    JournalMetadata journal_meta = {};
    // On-disk encoding for a *fresh* journal. Resume keeps whatever encoding
    // the existing file uses (auto-detected on load), so this never forks a
    // journal's format mid-campaign.
    JournalFormat journal_format = JournalFormat::kExtent;
    // Test hook for the kill-and-resume contract: exit the process (no
    // destructors, mid-campaign) right after this many records have been
    // appended in this run. 0 = off.
    size_t abort_after_records = 0;
    // Epoch-synchronized feedback (> 0, in batches): OnFeedback delivery to
    // a feedback-driven source is withheld until `epoch_len` merged batches
    // complete (or the source runs dry mid-epoch), then delivered in job
    // order all at once. This is the single-process reference semantics of
    // distributed coverage-guided exploration -- the orchestrator's
    // spawn/merge/reseed loop must produce the same stream, byte for byte --
    // and records are stamped with the epoch ordinal that produced them.
    size_t epoch_len = 0;
    // Stamps every record this run appends with one fixed epoch ordinal: an
    // epoch shard child's whole run lies inside a single epoch. kNoEpoch =
    // no stamp (the default for ordinary campaigns).
    size_t epoch = kNoEpoch;
    // Wall-clock budget per job (0 = none). A job still running past it --
    // a target hung under an injected fault -- is abandoned on its worker
    // thread and reported as a deterministic FoundBug kind "hang" whose
    // site and fingerprint derive from the job label alone, so the record
    // (and the journal bytes) are reproducible. Deliberately NOT part of
    // the campaign identity: the same campaign run under any timeout
    // resumes and byte-compares against any other, and resume replays hang
    // records from disk without re-waiting.
    uint64_t job_timeout_ms = 0;
    // System name attributed to hang bugs ("" falls back to "campaign").
    std::string system = {};
  };

  using ResultRunner = std::function<JobResult(const CampaignJob&)>;

  CampaignEngine() = default;
  explicit CampaignEngine(Options options) : options_(options) {}

  // Pulls batches of Options::batch_size jobs from `source` until it is
  // exhausted, runs each on the worker pool (job.explore when set, `runner`
  // otherwise; a job with neither throws std::logic_error), folds results in
  // job order, and hands the source per-job RunFeedback at the merge point.
  // Open-loop sources (needs_feedback() false) skip the batch barriers
  // entirely: the source is drained up front and everything runs through one
  // eager job-order fold. Jobs marked skip_when_saturated are gated once the
  // bugs folded so far reach Options::max_bugs. Deterministic for any worker
  // count: batch boundaries, fold order, and feedback order depend only on
  // the source and the batch size.
  ExplorationResult Run(ScenarioSource& source, const ResultRunner& runner = nullptr) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

// Runtime options carrying a job's deterministic seed.
inline Runtime::Options SeededOptions(uint64_t seed) {
  Runtime::Options options;
  options.seed = seed;
  return options;
}

// --- Scenario sources -------------------------------------------------------

// One job per not-fully-checked call site of `binary` against `profile`
// (reports come from the AnalysisCache, so repeated campaigns and concurrent
// workers share one analyzer pass). Labels are "function@enclosing+0xoff";
// per-job seeds derive from `seed_base` and the site offset.
std::vector<CampaignJob> AnalyzerJobs(const Image& binary, const FaultProfile& profile,
                                      uint64_t seed_base = 1);

// A single-site random-injection scenario: fail `function` with
// (retval, errno) at `probability` on every call, stream seeded by `seed`.
Scenario MakeRandomScenario(const std::string& function, int64_t retval, int errno_value,
                            double probability, uint64_t seed);

// Fails the `count`-th call to `function` with (retval, errno): the
// exhaustive-sweep building block (e.g. the BIND dst_lib_init malloc sweep).
Scenario MakeCallCountScenario(const std::string& function, uint64_t count, int64_t retval,
                               int errno_value);

}  // namespace lfi

#endif  // LFI_CORE_CAMPAIGN_ENGINE_H_
