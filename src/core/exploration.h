// Feedback-driven scenario exploration (§5/§7.1, grown into a loop).
//
// The paper generates injection scenarios once from the call-site analysis
// and runs the list. A ScenarioSource generalizes that: it yields
// CampaignJobs on demand and receives RunFeedback -- newly covered recovery
// blocks (CoverageMap::NewlyCoveredVersus), the injection-log fingerprint,
// bug/no-bug -- after every merged batch, so what ran can steer what runs
// next. Three strategies ship:
//
//   ExhaustiveSource      the paper's §7.1 behaviour: a prebuilt job list
//                         (typically AnalyzerJobs), streamed in order.
//   RandomSweepSource     seeded random sweep over the fault space: pick a
//                         profiled function, an error mode, and a call
//                         ordinal; deduplicate; repeat up to the budget.
//   CoverageGuidedSource  the feedback loop. Unexplored call sites first
//                         (unchecked > partially checked > checked, round-
//                         robin across enclosing functions for diversity);
//                         scenarios whose runs covered new blocks or exposed
//                         a new bug are mutated -- other (retval, errno)
//                         modes from the profile, later call ordinals at the
//                         same site -- while runs whose injection
//                         fingerprint was already observed are treated as
//                         equivalent and not expanded.
//
// Every strategy is deterministic given its seed: the engine's fixed batch
// size (not the worker count) decides when feedback arrives, so the same
// seed + strategy yields a bit-identical bug list at any parallelism.

#ifndef LFI_CORE_EXPLORATION_H_
#define LFI_CORE_EXPLORATION_H_

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/callsite_analyzer.h"
#include "core/campaign_engine.h"
#include "profiler/fault_profile.h"
#include "util/rng.h"

namespace lfi {

// What the engine observed running one job, delivered to the source at the
// deterministic job-order merge point.
struct RunFeedback {
  bool new_bug = false;     // the job reported a crash site not seen before
  size_t injections = 0;    // faults actually injected during the run
  std::string fingerprint;  // JobResult::fingerprint; "" = nothing injected
  // Coverage blocks this run covered for the first time across the whole
  // streamed campaign (CoverageMap::NewlyCoveredVersus the cumulative map).
  std::vector<std::string> new_blocks;

  bool operator==(const RunFeedback& o) const = default;

  // XML round trip (<feedback> with one <newblock> per new block), used by
  // campaign journal records. On resume the engine recomputes feedback from
  // the replayed coverage deltas; the serialized copy exists so a journal is
  // self-describing for offline mining.
  void AppendXml(XmlNode* parent) const;
  std::string ToXml() const;
  static std::optional<RunFeedback> FromNode(const XmlNode& node,
                                             std::string* error = nullptr);
  static std::optional<RunFeedback> Parse(const std::string& xml,
                                          std::string* error = nullptr);
};

// A pull-based producer of campaign jobs. NextBatch() returning an empty
// vector ends the campaign. The engine calls OnFeedback() once per merged
// job, in job order, at its merge point -- possibly on a worker thread, under
// the engine's merge lock, while later jobs of the same batch still run, but
// never concurrently with NextBatch(), so a source never observes feedback
// for a batch it is still producing.
class ScenarioSource {
 public:
  virtual ~ScenarioSource() = default;

  // Up to `max_jobs` next jobs (fewer near budget exhaustion; empty = done).
  virtual std::vector<CampaignJob> NextBatch(size_t max_jobs) = 0;

  // Default: feedback is ignored (open-loop strategies).
  virtual void OnFeedback(const CampaignJob& job, const RunFeedback& feedback);

  // False (the default) declares the source open-loop: its schedule never
  // depends on feedback, so the engine may drain it up front and run
  // everything in one barrier-free pass. Feedback is still delivered.
  virtual bool needs_feedback() const { return false; }
};

// Streams a prebuilt job list in order: the paper's one-shot generation,
// expressed as a source. `budget` > 0 truncates to the first `budget` jobs.
class ExhaustiveSource : public ScenarioSource {
 public:
  explicit ExhaustiveSource(std::vector<CampaignJob> jobs, size_t budget = 0);
  std::vector<CampaignJob> NextBatch(size_t max_jobs) override;

 private:
  std::vector<CampaignJob> jobs_;
  size_t next_ = 0;
};

// Seeded random sweep over (function, error mode, call ordinal): the
// "random injection" phase of §7.1, budgeted and reproducible. Scenarios use
// the call-count trigger, so each one is a deterministic single fault.
class RandomSweepSource : public ScenarioSource {
 public:
  // `functions` is the sample space (typically the distinct functions the
  // analyzer found call sites for); unknown names are skipped. The profile
  // must outlive the source.
  RandomSweepSource(const FaultProfile& profile, std::vector<std::string> functions,
                    size_t budget, uint64_t seed);
  std::vector<CampaignJob> NextBatch(size_t max_jobs) override;

 private:
  const FaultProfile* profile_;
  std::vector<std::string> functions_;
  size_t budget_;
  size_t emitted_ = 0;
  Rng rng_;
  std::set<std::string> seen_keys_;  // (function, retval, errno, count) dedup
};

// Deals an open-loop source's deterministic job stream across shards for
// multi-process campaigns: drains `inner` up front, keeps only the jobs whose
// scenario fingerprint (ScenarioShard) lands on `shard_index`, and stamps
// every kept job's CampaignJob::stream_index with its position in the
// unsharded stream (a job the inner source already stamped — e.g. an
// epoch-mode CoverageGuidedSource, whose stream positions continue across
// epochs — keeps its stamp). Content-keyed dealing means N processes seeded
// with the same spec compute the same partition with no coordinator, and the
// recorded stream positions let MergeJournals interleave the per-shard
// journals back into exact single-process merge order.
//
// Feedback-driven sources (needs_feedback()) cannot be dealt this way --
// their schedule depends on results the other shards hold -- so the
// constructor rejects them (std::invalid_argument), as it does out-of-range
// shard coordinates.
class ShardSource : public ScenarioSource {
 public:
  ShardSource(ScenarioSource& inner, size_t shard_index, size_t shard_count);

  std::vector<CampaignJob> NextBatch(size_t max_jobs) override;

  size_t size() const { return jobs_.size(); }
  // How long the unsharded stream was (every shard sees the same value).
  size_t stream_size() const { return stream_size_; }

 private:
  std::vector<CampaignJob> jobs_;
  size_t stream_size_ = 0;
  size_t next_ = 0;
};

// The complete mutable state of a CoverageGuidedSource at a quiescent point
// (no feedback outstanding): the pending explore/exploit queues, the scenario
// and fingerprint dedup sets, and how many jobs have been scheduled so far.
// Plans reference call-site reports by index, which is stable across
// processes because the analyzer (and the report concatenation order the
// campaign driver uses) is deterministic for a given binary + profiles.
//
// This is the unit of frontier hand-off in epoch-synchronized distributed
// exploration: the orchestrator exports its master source's state at an
// epoch boundary, each shard child imports it and re-derives the epoch's job
// stream open-loop, and a source rebuilt this way is indistinguishable from
// one that absorbed the merged feedback prefix live (ImportFrontier after
// ExportFrontier round-trips exactly; operator== is the test hook).
struct FrontierState {
  // Mirrors CoverageGuidedSource's internal plan: a site plus the
  // (retval, errno, call-count) variant to inject there. call_count == 0 =
  // every call at the site.
  struct Plan {
    size_t report_index = 0;
    int64_t retval = 0;
    int errno_value = 0;
    uint64_t call_count = 0;

    bool operator==(const Plan& o) const = default;
  };

  std::vector<Plan> explore;                  // unexplored sites, in order
  std::vector<Plan> exploit;                  // pending mutations, in order
  std::vector<std::string> seen_keys;         // scenario dedup (sorted)
  std::vector<std::string> seen_fingerprints; // equivalent-run dedup (sorted)
  size_t scheduled = 0;                       // jobs scheduled so far

  bool operator==(const FrontierState& o) const = default;

  // XML round trip (<frontier>), the wire format the orchestrator hands to
  // epoch shard children.
  void AppendXml(XmlNode* parent) const;
  std::string ToXml() const;
  static std::optional<FrontierState> FromNode(const XmlNode& node,
                                               std::string* error = nullptr);
  static std::optional<FrontierState> Parse(const std::string& xml,
                                            std::string* error = nullptr);
};

// The coverage-guided feedback loop over a binary's analyzed call sites.
class CoverageGuidedSource : public ScenarioSource {
 public:
  struct Options {
    size_t budget = 64;  // total scenarios to schedule
    uint64_t seed = 1;   // per-job Runtime seeds derive from this
    // Also explore fully checked sites once the unchecked/partial frontier
    // drains. Checked calls are exactly where buggy *recovery* hides (the
    // MySQL close and BIND dst bugs), and injecting there is how Table 3
    // reaches recovery blocks no static classification flags.
    bool include_checked_sites = true;
    int max_mutations_per_run = 3;  // mutations enqueued per fruitful run
    uint64_t max_call_count = 3;    // call-ordinal mutations try 2..this
    // Epoch mode (one shard child's slice of a distributed campaign): the
    // source runs open-loop -- needs_feedback() turns false so ShardSource
    // accepts it and the engine drains it in one pass -- and stops
    // scheduling at `schedule_limit` total jobs (0 = no limit), i.e. at the
    // end of the epoch whose frontier was imported.
    bool open_loop = false;
    size_t schedule_limit = 0;
  };

  CoverageGuidedSource(std::vector<CallSiteReport> reports, const FaultProfile& profile,
                       Options options);

  std::vector<CampaignJob> NextBatch(size_t max_jobs) override;
  void OnFeedback(const CampaignJob& job, const RunFeedback& feedback) override;
  bool needs_feedback() const override { return !options_.open_loop; }

  size_t scheduled() const { return scheduled_; }

  // Snapshots / replaces the source's mutable state. Export requires
  // quiescence -- every scheduled job's feedback delivered (or the source
  // running open-loop, where nothing is ever in flight) -- and throws
  // std::logic_error otherwise: an in-flight plan is not representable and
  // silently dropping it would fork the schedule.
  FrontierState ExportFrontier() const;
  void ImportFrontier(const FrontierState& state);

 private:
  using Plan = FrontierState::Plan;

  std::string PlanKey(const Plan& plan) const;
  bool Schedule(const Plan& plan, std::vector<CampaignJob>* out);
  void EnqueueMutations(const Plan& plan);

  std::vector<CallSiteReport> reports_;
  const FaultProfile* profile_;
  Options options_;
  std::deque<Plan> explore_;  // unexplored call sites, priority-ordered
  std::deque<Plan> exploit_;  // mutations of fruitful scenarios
  std::map<std::string, Plan> in_flight_;    // job label -> plan awaiting feedback
  // Scenario dedup. A key is claimed when its plan is scheduled OR enqueued
  // as a mutation, so pending-but-unscheduled mutations never consume a
  // later fruitful run's mutation slots twice.
  std::set<std::string> seen_keys_;
  std::set<std::string> seen_fingerprints_;  // equivalent-run dedup
  size_t scheduled_ = 0;
};

}  // namespace lfi

#endif  // LFI_CORE_EXPLORATION_H_
