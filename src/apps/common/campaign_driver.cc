#include "apps/common/campaign_driver.h"

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define LFI_HAVE_FORK 1
#endif

#include "apps/bfs/bfs.h"
#include "apps/bind/bind.h"
#include "apps/common/shard_supervisor.h"
#include "apps/common/warm_targets.h"
#include "apps/git/git.h"
#include "apps/mysql/mysql.h"
#include "apps/pbft/pbft.h"
#include "core/analysis_cache.h"
#include "core/controller.h"
#include "core/custom_triggers.h"
#include "core/distributed.h"
#include "core/exploration.h"
#include "core/stock_triggers.h"
#include "util/errno_codes.h"
#include "util/failpoint.h"
#include "util/string_util.h"
#include "vlib/library_profiles.h"

namespace lfi {
namespace {

// Ground-truth profiles, memoized process-wide so concurrent workers and
// repeated campaigns share one copy (stub_gen/profiler round-trip them
// exactly, so ground truth and recovered profiles are interchangeable).
const FaultProfile& CachedLibcProfile() {
  return AnalysisCache::Instance().Profile("libc", LibcProfile);
}

const FaultProfile& CachedLibxmlProfile() {
  return AnalysisCache::Instance().Profile("libxml2", LibxmlProfile);
}

// --- Table 1 job lists ------------------------------------------------------
// The job runners themselves live in apps/common/warm_targets.cc: one shared
// core per workload, wrapped either cold (construct-run-destroy) or warm
// (snapshot/reset pools). Builders receive the campaign's ExecutionLayer so
// self-contained jobs (job.explore) plug into the same warm pools.

std::vector<CampaignJob> GitTable1Jobs(bool exhaustive, ExecutionLayer& exec) {
  (void)exhaustive;
  (void)exec;
  return AnalyzerJobs(GitBinary().image(), CachedLibcProfile());
}

std::vector<CampaignJob> MysqlTable1Jobs(bool exhaustive, ExecutionLayer& exec) {
  (void)exhaustive;
  (void)exec;
  const FaultProfile& profile = CachedLibcProfile();

  // Phase 1: analyzer-generated scenarios.
  std::vector<CampaignJob> jobs = AnalyzerJobs(MysqlBinary().image(), profile);

  // Phase 2: random injection (the paper ran 1,000 random tests against
  // MySQL and distilled 35 crashes into the two Table 1 bugs).
  for (const char* function : {"close", "read"}) {
    const FunctionProfile* fn = profile.Find(function);
    int64_t retval = fn->errors.front().retval;
    int errno_value = fn->errors.front().errnos.empty() ? 0 : kEIO;
    for (uint64_t seed = 1; seed <= 50; ++seed) {
      CampaignJob job;
      job.scenario = MakeRandomScenario(function, retval, errno_value, 0.1, seed);
      job.label =
          StrFormat("random 10%% on %s (seed %llu)", function, (unsigned long long)seed);
      job.seed = seed;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

std::vector<CampaignJob> BindTable1Jobs(bool exhaustive, ExecutionLayer& exec) {
  (void)exhaustive;

  // Analyzer scenarios against both library profiles.
  std::vector<CampaignJob> jobs = AnalyzerJobs(BindBinary().image(), CachedLibcProfile());
  for (CampaignJob& job : AnalyzerJobs(BindBinary().image(), CachedLibxmlProfile())) {
    jobs.push_back(std::move(job));
  }

  // Exhaustive malloc sweep over dst_lib_init: the call *is* checked (so the
  // analyzer reports it fully checked), but the recovery path is broken.
  // These run a different workload, so they carry their own runner.
  for (uint64_t k = 1; k <= MiniBind::kDstAllocations; ++k) {
    CampaignJob job;
    job.scenario = MakeCallCountScenario("malloc", k, 0, kENOMEM);
    job.label = StrFormat("malloc #%llu = NULL in dst_lib_init", (unsigned long long)k);
    job.seed = k;
    job.explore = exec.bind_dst_runner();
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<CampaignJob> PbftTable1Jobs(bool exhaustive, ExecutionLayer& exec) {
  // Phase 1: analyzer scenarios against replica 0 (shutdown checkpoint bug).
  std::vector<CampaignJob> jobs = AnalyzerJobs(PbftBinary().image(), CachedLibcProfile());

  // Phase 2: distributed random faults in sendto/recvfrom across replicas
  // (release build). Message loss leaves prepare certificates without their
  // payloads; the crash manifests during the view change. The serial
  // campaign stopped fuzzing once two bugs were on the list; max_bugs plus
  // skip_when_saturated reproduces that cutoff deterministically.
  Scenario dist;
  {
    TriggerDecl decl;
    decl.id = "dist";
    decl.class_name = "DistributedTrigger";
    dist.AddTrigger(decl);
    for (const char* function : {"sendto", "recvfrom"}) {
      FunctionAssoc assoc;
      assoc.function = function;
      assoc.retval = -1;
      assoc.errno_value = kEIO;
      assoc.triggers.push_back(TriggerRef{"dist", false});
      dist.AddFunction(assoc);
    }
  }
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    CampaignJob job;
    job.scenario = dist;
    job.label =
        StrFormat("random sendto/recvfrom faults, seed %llu", (unsigned long long)seed);
    job.seed = seed;
    job.skip_when_saturated = !exhaustive;
    job.explore = exec.pbft_distributed_runner();
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<CampaignJob> BfsTable1Jobs(bool exhaustive, ExecutionLayer& exec) {
  // Phase 1: analyzer scenarios against the server's libc call sites (the
  // unchecked durability-barrier fopen surfaces here).
  std::vector<CampaignJob> jobs = AnalyzerJobs(BfsBinary().image(), CachedLibcProfile());

  // Phase 2: partial-transfer faults on the vnet fabric itself. These are not
  // library faults -- the runner arms the network's short-write/short-read
  // sites directly -- so they carry their own runner, like bind's dst sweep.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    CampaignJob job;
    job.label = StrFormat("partial send/recv over vnet, seed %llu", (unsigned long long)seed);
    job.seed = seed;
    job.skip_when_saturated = !exhaustive;
    job.explore = exec.bfs_mux_runner();
    jobs.push_back(std::move(job));
  }
  return jobs;
}

// --- the system table -------------------------------------------------------

// Everything system-specific the driver needs, in one row per target: the
// one copy of the per-system dispatch.
struct SystemEntry {
  const char* name;
  const AppBinary& (*binary)();
  std::vector<const FaultProfile*> (*profiles)();
  JobResult (*table1_runner)(const CampaignJob&);   // default workload, cold
  JobResult (*explore_runner)(const CampaignJob&);  // exploration workload, cold
  std::vector<CampaignJob> (*table1_jobs)(bool exhaustive, ExecutionLayer& exec);
  size_t table1_max_bugs;  // historical fuzz cutoff; 0 = run everything
};

std::vector<const FaultProfile*> LibcOnly() { return {&CachedLibcProfile()}; }
std::vector<const FaultProfile*> LibcAndLibxml() {
  return {&CachedLibcProfile(), &CachedLibxmlProfile()};
}

const SystemEntry kSystems[] = {
    {"git", GitBinary, LibcOnly, RunGitJob, RunGitJob, GitTable1Jobs, 0},
    {"mysql", MysqlBinary, LibcOnly, RunMysqlJob, RunMysqlJob, MysqlTable1Jobs, 0},
    {"bind", BindBinary, LibcAndLibxml, RunBindJob, RunBindJob, BindTable1Jobs, 0},
    {"pbft", PbftBinary, LibcOnly, RunPbftJob, RunPbftExploreJob, PbftTable1Jobs, 2},
    {"bfs", BfsBinary, LibcOnly, RunBfsJob, RunBfsExploreJob, BfsTable1Jobs, 0},
};

const SystemEntry* FindSystem(const std::string& name) {
  for (const SystemEntry& entry : kSystems) {
    if (name == entry.name) {
      return &entry;
    }
  }
  return nullptr;
}

std::vector<std::string> SiteFunctions(const std::vector<CallSiteReport>& reports) {
  std::set<std::string> functions;
  for (const CallSiteReport& report : reports) {
    functions.insert(report.site.function);
  }
  return {functions.begin(), functions.end()};
}

// Engine options for a (possibly journaled) spec; the journal header is the
// spec's identity, so `lfi_tool resume` can rebuild the spec from the file.
CampaignEngine::Options EngineOptions(const CampaignSpec& spec, size_t max_bugs) {
  CampaignEngine::Options options;
  options.workers = spec.workers;
  options.max_bugs = max_bugs;
  options.journal_path = spec.journal_path;
  options.resume = spec.resume;
  options.journal_format = spec.format;
  options.abort_after_records = spec.abort_after_records;
  // An epoch shard child's whole run lies inside one already-scheduled epoch
  // (the frontier snapshot fixed the schedule), so the engine runs it
  // open-loop with a fixed epoch stamp; the single-process epoch campaign
  // instead lets the engine drive the epoch boundaries itself.
  options.epoch_len = spec.epoch_index != kNoEpoch ? 0 : spec.epoch_len;
  options.epoch = spec.epoch_index;
  // Hang detection: never part of the identity, so journals recorded under
  // any timeout byte-compare against any other.
  options.job_timeout_ms = spec.job_timeout_ms;
  options.system = spec.system;
  if (!spec.journal_path.empty()) {
    options.journal_meta = spec.ToJournalMeta();
  }
  return options;
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f != nullptr) {
    std::fclose(f);
  }
  return f != nullptr;
}

// The analyzer inputs an exploration strategy consumes: every library's call
// site reports concatenated in profile order (deterministic, so plan report
// indices are stable across processes), plus one profile to look functions
// up in -- a combined view when the system links several libraries (profiles
// never share function names here; if they did, the first library would win,
// matching link order).
struct ExploreInputs {
  std::vector<const FaultProfile*> profiles;
  std::vector<CallSiteReport> reports;
  FaultProfile combined{"combined"};
  bool use_combined = false;

  const FaultProfile& lookup() const { return use_combined ? combined : *profiles.front(); }
};

ExploreInputs BuildExploreInputs(const SystemEntry& entry) {
  ExploreInputs inputs;
  inputs.profiles = entry.profiles();
  for (const FaultProfile* profile : inputs.profiles) {
    const std::vector<CallSiteReport>& cached =
        AnalysisCache::Instance().Reports(entry.binary().image(), *profile);
    inputs.reports.insert(inputs.reports.end(), cached.begin(), cached.end());
  }
  if (inputs.profiles.size() > 1) {
    for (auto it = inputs.profiles.rbegin(); it != inputs.profiles.rend(); ++it) {
      for (const auto& [name, fn] : (*it)->functions()) {
        inputs.combined.AddFunction(fn);
      }
    }
    inputs.use_combined = true;
  }
  return inputs;
}

// Points the process-wide AnalysisCache at the campaign's persistent
// on-disk cache directory (unless the user already chose one via
// LFI_ANALYSIS_CACHE), and exports the choice so spawned shard children
// inherit it: every child then loads the binary analysis from disk instead
// of re-running the analyzer at startup.
void ConfigureAnalysisCacheDir(const std::string& journal_path) {
  if (journal_path.empty() || std::getenv("LFI_ANALYSIS_CACHE") != nullptr) {
    return;
  }
  std::string dir = journal_path + ".acache";
  AnalysisCache::Instance().SetPersistDir(dir);
#ifdef LFI_HAVE_FORK
  setenv("LFI_ANALYSIS_CACHE", dir.c_str(), /*overwrite=*/0);
#endif
}

CampaignOutcome FromExploration(ExplorationResult result, const std::string& journal_path) {
  CampaignOutcome outcome;
  outcome.bugs = std::move(result.bugs);
  outcome.coverage = std::move(result.coverage);
  outcome.scenarios_run = result.scenarios_run;
  outcome.journal_path = journal_path;
  return outcome;
}

}  // namespace

CampaignEngine::ResultRunner SystemJobRunner(const std::string& system,
                                             bool explore_workload) {
  EnsureStockTriggersRegistered();
  const SystemEntry* entry = FindSystem(system);
  if (entry == nullptr) {
    return nullptr;
  }
  return explore_workload ? entry->explore_runner : entry->table1_runner;
}

std::optional<CampaignOutcome> CampaignDriver::Run(std::string* error) {
  auto fail = [&](std::string message) -> std::optional<CampaignOutcome> {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return std::nullopt;
  };
  std::string invalid = spec_.Validate();
  if (!invalid.empty()) {
    return fail(std::move(invalid));
  }
  // Chaos hooks, armed before anything fallible runs. The spec carries the
  // schedule over the wire to spawned children (Arm replaces the whole set,
  // so a forked child re-arming its inherited registry is idempotent);
  // scope names this process so "epoch1.shard2:..." entries fire only in
  // the child they script.
  if (!spec_.failpoints.empty()) {
    std::string fp_error;
    if (!Failpoints::Instance().Arm(spec_.failpoints, &fp_error)) {
      return fail("bad failpoint spec: " + fp_error);
    }
  }
  if (spec_.shard_index != CampaignSpec::kNoShard) {
    Failpoints::Instance().SetScope(
        spec_.epoch_index != kNoEpoch
            ? StrFormat("epoch%zu.shard%zu", spec_.epoch_index, spec_.shard_index)
            : StrFormat("shard%zu", spec_.shard_index));
    if (FailpointFired("child.start")) {
      return fail("failpoint child.start fired");
    }
  }
  EnsureStockTriggersRegistered();
  try {
    bool orchestrates = spec_.shard_count > 1 && spec_.shard_index == CampaignSpec::kNoShard &&
                        (spec_.mode == CampaignMode::kTable1 || spec_.mode == CampaignMode::kExplore);
    if (orchestrates) {
      if (spec_.mode == CampaignMode::kExplore && spec_.strategy == ExploreStrategy::kCoverage) {
        // Validate guaranteed epoch_len != 0 for this combination.
        return RunEpochOrchestration(error);
      }
      return RunShardOrchestration(error);
    }
    switch (spec_.mode) {
      case CampaignMode::kTable1:
        return RunTable1(error);
      case CampaignMode::kExplore:
        return RunExplore(error);
      case CampaignMode::kResume:
        return RunResume(error);
      case CampaignMode::kReplay:
        return RunReplay(error);
    }
    return fail("unreachable campaign mode");
  } catch (const std::exception& e) {
    // The engine throws on unusable journals (divergence, I/O); surface it
    // as a CLI-friendly error instead of tearing down the process.
    return fail(e.what());
  }
}

std::optional<CampaignOutcome> CampaignDriver::RunTable1(std::string* error) {
  if (spec_.system == "all") {
    // The per-system engines share no job stream, so one journal cannot cover the
    // union campaign (Validate already refused a journal path).
    std::set<FoundBug> all;
    size_t scenarios = 0;
    for (const SystemEntry& entry : kSystems) {
      CampaignSpec per_system = spec_;
      per_system.system = entry.name;
      CampaignDriver driver(per_system);
      auto outcome = driver.Run(error);
      if (!outcome) {
        return std::nullopt;
      }
      all.insert(outcome->bugs.begin(), outcome->bugs.end());
      scenarios += outcome->scenarios_run;
    }
    CampaignOutcome outcome;
    outcome.bugs = {all.begin(), all.end()};
    outcome.scenarios_run = scenarios;
    return outcome;
  }

  const SystemEntry* entry = FindSystem(spec_.system);
  // The execution layer (warm pools unless --cold-start) must outlive the
  // engine run: jobs built below capture its runners.
  ExecutionLayer exec(spec_.system, /*explore_workload=*/false, spec_.cold_start);
  std::vector<CampaignJob> jobs = entry->table1_jobs(spec_.exhaustive, exec);
  size_t max_bugs = spec_.exhaustive ? 0 : entry->table1_max_bugs;
  CampaignEngine engine(EngineOptions(spec_, max_bugs));
  ExhaustiveSource source(std::move(jobs));
  if (spec_.shard_index != CampaignSpec::kNoShard) {
    ShardSource sharded(source, spec_.shard_index, spec_.shard_count);
    return FromExploration(engine.Run(sharded, exec.runner()), spec_.journal_path);
  }
  return FromExploration(engine.Run(source, exec.runner()), spec_.journal_path);
}

std::optional<CampaignOutcome> CampaignDriver::RunExplore(std::string* error) {
  auto fail = [&](std::string message) -> std::optional<CampaignOutcome> {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return std::nullopt;
  };
  const SystemEntry* entry = FindSystem(spec_.system);
  ExploreInputs inputs = BuildExploreInputs(*entry);
  CampaignEngine engine(EngineOptions(spec_, /*max_bugs=*/0));
  ExecutionLayer exec(spec_.system, /*explore_workload=*/true, spec_.cold_start);
  auto run = [&](ScenarioSource& source) -> CampaignOutcome {
    if (spec_.shard_index != CampaignSpec::kNoShard) {
      ShardSource sharded(source, spec_.shard_index, spec_.shard_count);
      return FromExploration(engine.Run(sharded, exec.runner()), spec_.journal_path);
    }
    return FromExploration(engine.Run(source, exec.runner()), spec_.journal_path);
  };
  switch (spec_.strategy) {
    case ExploreStrategy::kExhaustive: {
      std::vector<CampaignJob> jobs;
      for (const FaultProfile* profile : inputs.profiles) {
        for (CampaignJob& job : AnalyzerJobs(entry->binary().image(), *profile)) {
          jobs.push_back(std::move(job));
        }
      }
      ExhaustiveSource source(std::move(jobs), spec_.budget);
      return run(source);
    }
    case ExploreStrategy::kRandom: {
      RandomSweepSource source(inputs.lookup(), SiteFunctions(inputs.reports),
                               spec_.budget != 0 ? spec_.budget : 64, spec_.seed);
      return run(source);
    }
    case ExploreStrategy::kCoverage: {
      CoverageGuidedSource::Options options;
      options.budget = spec_.budget != 0 ? spec_.budget : 64;
      options.seed = spec_.seed;
      std::optional<FrontierState> frontier;
      if (spec_.epoch_index != kNoEpoch) {
        // Epoch shard child: reseed the frontier the orchestrator exported
        // at the epoch boundary and re-derive the epoch's job stream
        // open-loop. The schedule limit is where the epoch ends in the
        // unsharded stream; a frontier that runs dry earlier stops earlier,
        // exactly like the single-process run's early epoch flush.
        std::ifstream in(spec_.frontier_path);
        std::string xml((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
        if (xml.empty()) {
          return fail("cannot read frontier snapshot " + spec_.frontier_path);
        }
        std::string frontier_error;
        frontier = FrontierState::Parse(xml, &frontier_error);
        if (!frontier) {
          return fail("bad frontier snapshot " + spec_.frontier_path + ": " + frontier_error);
        }
        options.open_loop = true;
        options.schedule_limit =
            frontier->scheduled + spec_.epoch_len * CampaignEngine::Options::kDefaultBatchSize;
      }
      CoverageGuidedSource source(inputs.reports, inputs.lookup(), options);
      if (frontier) {
        source.ImportFrontier(*frontier);
      }
      return run(source);
    }
  }
  return CampaignOutcome{};
}

std::optional<CampaignOutcome> CampaignDriver::RunResume(std::string* error) {
  auto journal = CampaignJournal::Load(spec_.journal_path, error);
  if (!journal) {
    return std::nullopt;
  }
  auto recorded = CampaignSpec::FromJournalMeta(journal->metadata(), error);
  if (!recorded) {
    return std::nullopt;
  }
  recorded->workers = spec_.workers;
  recorded->journal_path = spec_.journal_path;
  recorded->resume = true;
  // `resume --shards N` resumes a merged epoch-synchronized journal as a
  // distributed campaign again (the journal's identity doesn't record the
  // shard count -- it is an execution choice, not part of the identity).
  if (spec_.shard_count > 1 && recorded->epoch_len == 0) {
    if (error != nullptr) {
      *error = "--shards on resume applies to epoch-synchronized (epoch-len) campaigns; "
               "this journal resumes single-process";
    }
    return std::nullopt;
  }
  recorded->shard_count = spec_.shard_count;
  // Resume never re-encodes: the engine keeps appending in whatever format
  // the file already uses.
  recorded->format = journal->format();
  recorded->json = spec_.json;
  recorded->abort_after_records = spec_.abort_after_records;
  // Supervision policy is environment, not identity: the resuming run's
  // flags win, and a resume never inherits the killed run's failpoints.
  recorded->child_timeout_ms = spec_.child_timeout_ms;
  recorded->max_retries = spec_.max_retries;
  recorded->backoff_ms = spec_.backoff_ms;
  recorded->job_timeout_ms = spec_.job_timeout_ms;
  recorded->cold_start = spec_.cold_start;
  recorded->failpoints = spec_.failpoints;
  CampaignDriver driver(*recorded);
  auto outcome = driver.Run(error);
  if (outcome) {
    outcome->metadata = journal->metadata();
  }
  return outcome;
}

std::optional<CampaignOutcome> CampaignDriver::RunReplay(std::string* error) {
  auto fail = [&](std::string message) -> std::optional<CampaignOutcome> {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return std::nullopt;
  };
  auto journal = CampaignJournal::Load(spec_.journal_path, error);
  if (!journal) {
    return std::nullopt;
  }
  std::string system = journal->Meta("system", "");
  bool explore_workload = journal->Meta("command", "explore") != "campaign";
  CampaignEngine::ResultRunner runner = SystemJobRunner(system, explore_workload);
  if (!runner) {
    return fail("journal names unknown system '" + system + "'");
  }

  // Which journaled injections to replay: every record that injected, or
  // the one the selector picks ("record" or "record:injection").
  struct Target {
    size_t record;
    size_t injection;
    // Whole-record replays re-inject the record's full fault sequence;
    // explicit "record:injection" selectors re-inject just the one fault.
    bool whole_record;
  };
  std::vector<Target> targets;
  const std::vector<JournalRecord>& records = journal->records();
  if (!spec_.replay_selector.empty()) {
    std::vector<std::string> parts = Split(spec_.replay_selector, ':');
    auto record = ParseInt(parts[0]);
    if (!record || parts.size() > 2 || *record < 0 ||
        static_cast<size_t>(*record) >= records.size()) {
      return fail(StrFormat("bad record selector '%s' (journal has %zu records)",
                            spec_.replay_selector.c_str(), records.size()));
    }
    const InjectionLog& log = records[*record].result.log;
    if (log.empty()) {
      return fail(StrFormat("record %lld injected nothing; nothing to replay",
                            static_cast<long long>(*record)));
    }
    size_t injection = log.size() - 1;
    bool whole_record = parts.size() != 2;
    if (parts.size() == 2) {
      auto parsed = ParseInt(parts[1]);
      if (!parsed || *parsed < 0 || static_cast<size_t>(*parsed) >= log.size()) {
        return fail(StrFormat("record %lld has %zu injection(s)",
                              static_cast<long long>(*record), log.size()));
      }
      injection = static_cast<size_t>(*parsed);
    }
    targets.push_back({static_cast<size_t>(*record), injection, whole_record});
  } else {
    for (size_t i = 0; i < records.size(); ++i) {
      if (!records[i].result.log.empty()) {
        // The last injection is the one the run died on (when it died); the
        // replay re-injects the whole sequence leading up to it.
        targets.push_back({i, records[i].result.log.size() - 1, /*whole_record=*/true});
      }
    }
  }

  CampaignOutcome outcome;
  outcome.journal_path = spec_.journal_path;
  outcome.metadata = journal->metadata();
  for (const Target& target : targets) {
    const JournalRecord& record = records[target.record];
    const InjectionRecord& injection = record.result.log.records()[target.injection];
    CampaignJob job;
    // Whole-record replays re-inject the full logged sequence: a survived
    // multi-injection run (the bfs consistency corruptions) only reproduces
    // when every earlier fault lands too, keeping the call numbering aligned
    // with the log. A single-injection selector keeps the narrower scenario.
    job.scenario = target.whole_record ? record.result.log.FullReplayScenario()
                                       : record.result.log.ReplayScenario(target.injection);
    job.label = StrFormat("replay %zu:%zu of %s", target.record, target.injection,
                          spec_.journal_path.c_str());
    job.seed = record.seed;
    JobResult replayed = runner(job);

    // A record that exposed bugs must reproduce at least one of its crash
    // sites from disk alone; injection-only records just report what ran.
    // Records whose log spans several processes (the distributed pbft fuzz
    // phase interposes every replica) cannot be reproduced faithfully by
    // the single-process replay harness -- the call-count trigger would
    // land on the wrong replica's Nth call -- so they are informational.
    std::set<std::string> processes;
    for (const InjectionRecord& logged : record.result.log.records()) {
      processes.insert(logged.process);
    }
    bool single_process = processes.size() <= 1;
    bool has_expectation = !record.result.bugs.empty() && single_process;
    bool match = false;
    for (const FoundBug& want : record.result.bugs) {
      for (const FoundBug& got : replayed.bugs) {
        match |= want.system == got.system && want.kind == got.kind && want.where == got.where;
      }
    }

    ReplayOutcome replay;
    replay.record = target.record;
    replay.injection = target.injection;
    replay.function = injection.function;
    replay.call_number = injection.call_number;
    replay.crashed = !replayed.bugs.empty();
    replay.where = replayed.bugs.empty() ? "" : replayed.bugs.front().where;
    replay.recorded_bug = !record.result.bugs.empty();
    replay.distributed = !single_process;
    replay.informational = !has_expectation;
    replay.reproduced = has_expectation && match;
    outcome.replays_expected += has_expectation ? 1 : 0;
    outcome.replays_reproduced += (has_expectation && match) ? 1 : 0;
    outcome.replays.push_back(std::move(replay));
  }
  outcome.ok = outcome.replays_reproduced == outcome.replays_expected;
  return outcome;
}

std::optional<CampaignOutcome> CampaignDriver::RunShardOrchestration(std::string* error) {
  auto fail = [&](std::string message) -> std::optional<CampaignOutcome> {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return std::nullopt;
  };
  // Refuse to clobber artifacts before any shard spends work (the engine
  // applies the same rule per shard journal).
  if (FileExists(spec_.journal_path)) {
    return fail("journal " + spec_.journal_path +
                " already exists; resume it to continue the campaign, or delete it to "
                "start fresh");
  }
  ConfigureAnalysisCacheDir(spec_.journal_path);

  std::vector<CampaignSpec> children;
  std::vector<std::string> shard_paths;
  for (size_t shard = 0; shard < spec_.shard_count; ++shard) {
    CampaignSpec child = spec_;
    child.shard_index = shard;
    child.journal_path = spec_.ShardJournalPath(shard);
    child.json = false;
    child.abort_after_records = 0;
    // A leftover shard journal is a killed orchestration's completed work:
    // resume it instead of discarding it. Finished shards replay entirely
    // from disk; a journal recorded under a different campaign identity
    // makes the child's engine refuse, which surfaces as the shard failing.
    child.resume = FileExists(child.journal_path);
    shard_paths.push_back(child.journal_path);
    children.push_back(std::move(child));
  }

  // Every shard sees at most the whole budget's job stream, so the budget
  // is the (conservative) per-child job bound the derived deadline uses.
  if (!RunShardChildren(children, spec_.budget, error)) {
    return std::nullopt;
  }

  return MergeCampaignJournals(shard_paths, spec_.journal_path, error, spec_.format);
}

bool CampaignDriver::RunShardChildren(const std::vector<CampaignSpec>& children,
                                      size_t jobs_hint, std::string* error) {
  ShardSupervisor::Options options;
  options.tool_path = tool_path_;
  options.max_retries = spec_.max_retries;
  options.backoff_ms = spec_.backoff_ms;
  // The per-child deadline: explicit wins; otherwise derive one from the
  // per-job budget (a child runs at most jobs_hint jobs plus startup/merge
  // slack). No budget at all = no deadline -- hang detection is opt-in.
  options.child_timeout_ms = spec_.child_timeout_ms;
  if (options.child_timeout_ms == 0 && spec_.job_timeout_ms != 0) {
    size_t jobs = jobs_hint != 0 ? jobs_hint : 64;
    options.child_timeout_ms = spec_.job_timeout_ms * static_cast<uint64_t>(jobs + 2);
  }
  ShardSupervisor supervisor(options,
                             [](const CampaignSpec& child, std::string* child_error) {
                               CampaignDriver driver(child);
                               return driver.Run(child_error).has_value();
                             });
  return supervisor.Run(children, error);
}

std::optional<CampaignOutcome> CampaignDriver::RunEpochOrchestration(std::string* error) {
  auto fail = [&](std::string message) -> std::optional<CampaignOutcome> {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return std::nullopt;
  };
  const size_t batch_size = CampaignEngine::Options::kDefaultBatchSize;

  // Resume loads the merged journal (possibly torn by a kill) and replays
  // its complete epochs through the loop below; a fresh run refuses to
  // clobber an existing artifact.
  std::vector<JournalRecord> loaded;
  JournalFormat format = spec_.format;
  if (spec_.resume) {
    auto journal = CampaignJournal::Load(spec_.journal_path, error);
    if (!journal) {
      return std::nullopt;
    }
    std::string mismatch =
        CampaignIdentityMismatch(spec_.journal_path, journal->metadata(), spec_.ToJournalMeta());
    if (!mismatch.empty()) {
      return fail(std::move(mismatch));
    }
    loaded = journal->records();
    format = journal->format();
  } else if (FileExists(spec_.journal_path)) {
    return fail("journal " + spec_.journal_path +
                " already exists; resume it to continue the campaign, or delete it to "
                "start fresh");
  }
  ConfigureAnalysisCacheDir(spec_.journal_path);

  const SystemEntry* entry = FindSystem(spec_.system);
  ExploreInputs inputs = BuildExploreInputs(*entry);
  CoverageGuidedSource::Options master_options;
  master_options.budget = spec_.budget != 0 ? spec_.budget : 64;
  master_options.seed = spec_.seed;
  CoverageGuidedSource master(inputs.reports, inputs.lookup(), master_options);

  // The merged journal is written exactly the way the single-process
  // --epoch-len run writes its own: the same header (no shard keys), records
  // appended in stream order as epochs merge, one Finalize at the very end.
  // On resume the file is rewritten from record zero -- appending the loaded
  // records unchanged reseals extents at the same boundaries, so the rewrite
  // is bit-identical and cleanly discards any torn tail the kill left.
  CampaignJournal merged;
  if (!merged.Create(spec_.journal_path, spec_.ToJournalMeta(), error, format)) {
    return std::nullopt;
  }
  MergeFoldState fold;
  std::deque<JournalRecord> replay(loaded.begin(), loaded.end());
  size_t appended_live = 0;
  std::vector<MergeInputStats> shard_stats(spec_.shard_count);
  std::vector<std::set<FoundBug>> shard_bugs(spec_.shard_count);
  for (size_t shard = 0; shard < spec_.shard_count; ++shard) {
    shard_stats[shard].path = spec_.journal_path + StrFormat(".epoch*.shard%zu", shard);
    shard_stats[shard].shard_index = shard;
  }

  for (size_t epoch = 0;; ++epoch) {
    // The epoch's schedule is a pure function of the frontier: snapshot it
    // first, then enumerate the epoch's jobs from the master source exactly
    // as the single-process engine would -- up to epoch_len batches, ending
    // early if the frontier runs dry (feedback for these jobs arrives only
    // after the epoch merges, so enumeration is open-loop by construction).
    FrontierState frontier = master.ExportFrontier();
    std::vector<CampaignJob> jobs;
    size_t batches = 0;
    while (batches < spec_.epoch_len) {
      std::vector<CampaignJob> next = master.NextBatch(batch_size);
      if (next.empty()) {
        break;
      }
      ++batches;
      for (CampaignJob& job : next) {
        jobs.push_back(std::move(job));
      }
    }
    if (jobs.empty()) {
      break;  // frontier exhausted or budget reached: the campaign is over
    }

    if (replay.size() >= jobs.size()) {
      // The merged journal fully covers this epoch: replay it. Loaded
      // records substitute for child work, and the master receives the
      // epoch's feedback exactly as if the epoch had just merged.
      for (size_t i = 0; i < jobs.size(); ++i) {
        const JournalRecord& record = replay[i];
        if (record.label != jobs[i].label || record.stream_index != jobs[i].stream_index ||
            record.epoch != epoch) {
          return fail(StrFormat(
              "journal %s does not align with the regenerated stream at record %zu "
              "('%s' where the frontier schedules '%s'); it was not recorded by this spec",
              spec_.journal_path.c_str(), fold.records + i, record.label.c_str(),
              jobs[i].label.c_str()));
        }
      }
      for (size_t i = 0; i < jobs.size(); ++i) {
        JournalRecord record = std::move(replay.front());
        replay.pop_front();
        // The engine's fold, continued across the rewrite: the recomputed
        // feedback equals the recorded copy, so the bytes do not change.
        record.feedback = fold.Fold(record.result, record.gated, record.stream_index);
        if (!merged.Append(record)) {
          return fail("journal append failed rewriting " + spec_.journal_path +
                      ": disk full or I/O error");
        }
        master.OnFeedback(jobs[i], record.feedback);
      }
      continue;
    }
    // The first epoch the merged journal does not fully cover runs live. Its
    // partial records (the kill's torn tail) are discarded: the sealed
    // per-epoch shard journals are the durable copy the epoch is rebuilt
    // from, and a shard whose journal already completed replays it from disk
    // without re-executing anything.
    replay.clear();

    // The frontier export is tmp+rename like every artifact a child (or a
    // resumed orchestrator) may read: a crash mid-write must never leave a
    // half-written snapshot where a complete one is expected.
    std::string frontier_path = spec_.EpochFrontierPath(epoch);
    {
      std::string tmp_path = frontier_path + ".tmp";
      std::ofstream out(tmp_path);
      out << frontier.ToXml();
      bool ok = out.good();
      out.close();
      if (FailpointFired("frontier.write")) {
        ok = false;
      }
      if (!ok || std::rename(tmp_path.c_str(), frontier_path.c_str()) != 0) {
        return fail("cannot write frontier snapshot " + frontier_path);
      }
    }

    std::vector<CampaignSpec> children;
    for (size_t shard = 0; shard < spec_.shard_count; ++shard) {
      CampaignSpec child = spec_;
      child.shard_index = shard;
      child.epoch_index = epoch;
      child.journal_path = spec_.EpochShardJournalPath(epoch, shard);
      child.frontier_path = frontier_path;
      child.json = false;
      child.abort_after_records = 0;
      // A leftover epoch-shard journal is a killed orchestration's completed
      // work: resume it (a complete one replays wholly from disk).
      child.resume = FileExists(child.journal_path);
      children.push_back(std::move(child));
    }
    if (!RunShardChildren(children, jobs.size(), error)) {
      return std::nullopt;
    }

    std::vector<CampaignJournal> epoch_journals;
    for (const CampaignSpec& child : children) {
      auto journal = CampaignJournal::Load(child.journal_path, error);
      if (!journal) {
        return std::nullopt;
      }
      epoch_journals.push_back(std::move(*journal));
    }
    std::vector<JournalRecord> merged_records;
    if (!MergeRecordsInto(merged, epoch_journals, &fold, error, &merged_records)) {
      return std::nullopt;
    }
    if (merged_records.size() != jobs.size()) {
      return fail(StrFormat("epoch %zu merged %zu records but the frontier scheduled %zu "
                            "jobs; a shard child diverged from the schedule",
                            epoch, merged_records.size(), jobs.size()));
    }
    for (size_t i = 0; i < jobs.size(); ++i) {
      if (merged_records[i].label != jobs[i].label ||
          merged_records[i].stream_index != jobs[i].stream_index) {
        return fail(StrFormat("epoch %zu record %zu is '%s' where the frontier scheduled "
                              "'%s'; a shard child diverged from the schedule",
                              epoch, i, merged_records[i].label.c_str(),
                              jobs[i].label.c_str()));
      }
    }
    for (size_t shard = 0; shard < epoch_journals.size(); ++shard) {
      TallyMergeInput(epoch_journals[shard], &shard_stats[shard], &shard_bugs[shard]);
    }
    // The epoch boundary: the whole epoch's feedback reaches the master
    // frontier at once, in stream order -- exactly the single-process
    // engine's deferred epoch flush.
    for (size_t i = 0; i < jobs.size(); ++i) {
      master.OnFeedback(jobs[i], merged_records[i].feedback);
    }
    appended_live += merged_records.size();
    if (spec_.abort_after_records != 0 && appended_live >= spec_.abort_after_records) {
      // The kill-and-resume test hook, mirroring the engine's: die without
      // finalizing. The sealed shard journals plus the merged journal's
      // sealed extents are exactly what resume rebuilds from.
      std::_Exit(3);
    }
  }

  if (!replay.empty()) {
    return fail(StrFormat("journal %s has %zu records past the regenerated stream's end; "
                          "it was not recorded by this spec",
                          spec_.journal_path.c_str(), replay.size()));
  }
  if (!merged.Finalize(error)) {
    return std::nullopt;
  }
  CampaignOutcome outcome = FromExploration(fold.TakeResult(), spec_.journal_path);
  outcome.metadata = spec_.ToJournalMeta();
  outcome.shards = std::move(shard_stats);
  return outcome;
}

std::optional<CampaignOutcome> MergeCampaignJournals(const std::vector<std::string>& inputs,
                                                     const std::string& output_path,
                                                     std::string* error,
                                                     std::optional<JournalFormat> format) {
  JournalMetadata metadata;
  std::vector<MergeInputStats> stats;
  auto merged = MergeJournals(inputs, output_path, error, &metadata, &stats, format);
  if (!merged) {
    return std::nullopt;
  }
  CampaignOutcome outcome = FromExploration(std::move(*merged), output_path);
  outcome.metadata = std::move(metadata);
  outcome.shards = std::move(stats);
  return outcome;
}

}  // namespace lfi
