// The campaign benchmark: end-to-end and per-layer figures for the
// fault-injection campaign engine on four workloads.
//
//   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
//                  --tool LFI_TOOL --workdir DIR --expected FILE
//   campaign_bench --record --seeds A-B --tool LFI_TOOL --workdir DIR
//   campaign_bench --hang-probe --workdir DIR
//
// Workloads (perfbench/README.md says why each was chosen):
//   pbft-explore  pbft random sweeps, budget 32, over a cycle of seeds
//   table1        the Table 1 campaign (exhaustive) for all five systems
//   resume        resume of finished Table 1 and pbft-explore journals
//   epoch-shards  pbft coverage exploration, epoch-len 2, 2 spawned shards
//
// Every campaign runs with one engine worker. A run sets up (analysis cache
// fill plus the workload's inputs) several times and reports the median as
// setup_s, runs one untimed warm-up campaign, then runs whole cycles of
// campaigns through CampaignDriver until the summed campaign wall time
// reaches --seconds. Every campaign's output is checked; a failed check
// counts against the run and is never skipped.
//
// --trace 1 is a separate run: it times the selected workload untraced, then
// replays every workload with spans recorded around the calls the benchmark
// makes into each layer's public API (trace.h), and prints the per-layer
// metrics. The hang probe for the bind EINTR defect runs last, in a child
// process, so its leaked thread cannot disturb any other figure.
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. Spawned shard children print to the run's log file instead.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/bfs/bfs.h"
#include "apps/bind/bind.h"
#include "apps/common/campaign_driver.h"
#include "apps/common/campaign_spec.h"
#include "apps/common/warm_targets.h"
#include "apps/git/git.h"
#include "apps/mysql/mysql.h"
#include "apps/pbft/pbft.h"
#include "core/analysis_cache.h"
#include "core/campaign_engine.h"
#include "core/exploration.h"
#include "core/journal.h"
#include "core/stock_triggers.h"
#include "core/warm_pool.h"
#include "trace.h"
#include "util/sha1.h"
#include "util/string_util.h"
#include "vlib/library_profiles.h"

extern char** environ;

namespace {

namespace fs = std::filesystem;
using lfi::CampaignDriver;
using lfi::CampaignMode;
using lfi::CampaignOutcome;
using lfi::CampaignSpec;
using perfbench::Tracer;

// Campaigns per cycle. A run always completes whole cycles, so every run of
// a workload measures the same mix of campaigns whatever the host's speed.
constexpr size_t kExploreCycle = 8;      // pbft-explore campaign seeds
constexpr size_t kExploreBudget = 32;    // scenarios per pbft-explore campaign
constexpr size_t kEpochCycle = 4;        // epoch-shards campaign seeds
constexpr size_t kResumeExploreJournals = 4;
// Passes over each system's analyzer jobs when timing the warm factories.
constexpr int kFactoryReps = 20;
// Set-up repeats at least this often, and until this much time is spent.
constexpr int kMinSetupReps = 3;
constexpr double kMinSetupSeconds = 2.0;
// The hang probe: `explore bind --strategy coverage` at budget >= 102 hangs
// on the persistent EINTR at read@load_zone (seed 1 is the known reproducer).
constexpr size_t kHangBudget = 102;
constexpr uint64_t kHangTimeoutMs = 200;

const char* const kWorkloads[] = {"pbft-explore", "table1", "resume", "epoch-shards"};
const char* const kSystems[] = {"git", "mysql", "bind", "pbft", "bfs"};
// Table 1's bugs per system (12 in all) for the exhaustive campaign.
const std::map<std::string, size_t> kTable1Bugs = {
    {"git", 5}, {"mysql", 2}, {"bind", 2}, {"pbft", 2}, {"bfs", 1}};

uint64_t CampaignSeed(uint64_t seed, size_t i) { return seed * 1000 + i + 1; }

// Where the benchmark's own diagnostics go (stderr itself carries the shard
// children's reports during a run).
std::FILE* g_err = stderr;

// --- measurement helpers ----------------------------------------------------

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// User plus system CPU of RUSAGE_SELF or RUSAGE_CHILDREN (reaped children
// only), in ms.
double UsageMs(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return usage.ru_utime.tv_sec * 1e3 + usage.ru_utime.tv_usec / 1e3 +
         usage.ru_stime.tv_sec * 1e3 + usage.ru_stime.tv_usec / 1e3;
}

double CpuMs() { return UsageMs(RUSAGE_SELF) + UsageMs(RUSAGE_CHILDREN); }

// A /proc/self/status field ("VmHWM", "VmRSS") in MB.
double StatusMb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0 && line.size() > len && line[len] == ':') {
      return std::strtod(line.c_str() + len + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  uintmax_t size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

std::string FileDigest(const std::string& path) { return lfi::Sha1::HexDigest(ReadFile(path)); }

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

// The highest percentile with at least ten samples beyond it: the value at
// rank n - 10 (1-based). Runs too short for that report their maximum.
struct Tail {
  double value = 0.0;
  size_t rank = 0;
  size_t count = 0;
};

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.count = values.size();
  if (values.empty()) {
    return tail;
  }
  std::sort(values.begin(), values.end());
  tail.rank = values.size() > 10 ? values.size() - 10 : values.size();
  tail.value = values[tail.rank - 1];
  return tail;
}

// A fixed integer spin: the calibration figure timed next to each workload
// run, and the unit of the effective-parallelism probe.
double SpinMs(uint64_t iterations) {
  static std::atomic<uint64_t> sink{0};
  double start = NowMs();
  uint64_t x = iterations;
  for (uint64_t i = 0; i < iterations; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  sink += x;
  return NowMs() - start;
}

constexpr uint64_t kSpinIterations = 50'000'000;

// N spinning threads against one: N * t1 / tN.
double EffectiveParallelism(unsigned threads) {
  double one = SpinMs(kSpinIterations);
  double start = NowMs();
  std::vector<std::thread> pool;
  for (unsigned i = 0; i < threads; ++i) {
    pool.emplace_back([] { SpinMs(kSpinIterations); });
  }
  for (std::thread& t : pool) {
    t.join();
  }
  double all = NowMs() - start;
  return all > 0.0 ? threads * one / all : 0.0;
}

std::string HostFingerprint() {
  utsname uts{};
  uname(&uts);
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      model = std::string(lfi::Trim(line.substr(line.find(':') + 1)));
      break;
    }
  }
  std::string mem;
  std::ifstream meminfo("/proc/meminfo");
  std::getline(meminfo, mem);
  return lfi::StrFormat("%s %s %s | %s | nproc %u | %s", uts.sysname, uts.release, uts.machine,
                        model.c_str(), std::thread::hardware_concurrency(),
                        std::string(lfi::Trim(mem)).c_str());
}

// --- correctness bookkeeping ------------------------------------------------

// What a campaign's outcome must reproduce: its bug list (system, kind,
// where), recovery-block coverage and scenario count, as one line.
std::string OutcomeDigest(const CampaignOutcome& outcome) {
  std::vector<lfi::FoundBug> bugs = outcome.bugs;
  std::sort(bugs.begin(), bugs.end());
  std::string list;
  for (const lfi::FoundBug& bug : bugs) {
    list += bug.system + "|" + bug.kind + "|" + bug.where + "\n";
  }
  lfi::CoverageMap::Stats stats = outcome.coverage.ComputeStats();
  return lfi::StrFormat("scenarios=%zu recovery=%zu/%zu bugs=%zu:%s", outcome.scenarios_run,
                        stats.covered_recovery_blocks, stats.recovery_blocks, bugs.size(),
                        lfi::Sha1::HexDigest(list).substr(0, 12).c_str());
}

// Recorded expectations: "workload <TAB> key <TAB> digest" lines.
using Expectations = std::map<std::pair<std::string, std::string>, std::string>;

Expectations LoadExpectations(const std::string& path) {
  Expectations expected;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::vector<std::string> parts = lfi::Split(line, '\t');
    if (parts.size() == 3 && !line.empty() && line[0] != '#') {
      expected[{parts[0], parts[1]}] = parts[2];
    }
  }
  return expected;
}

// The problems one campaign (or one cross-check) showed; empty = passed.
struct Verdict {
  std::vector<std::string> problems;
  void Expect(bool ok, const std::string& what) {
    if (!ok) {
      problems.push_back(what);
    }
  }
};

struct Checks {
  size_t attempted = 0;
  size_t failed = 0;

  void Record(const std::string& what, const Verdict& verdict) {
    ++attempted;
    if (!verdict.problems.empty()) {
      ++failed;
      for (const std::string& problem : verdict.problems) {
        std::fprintf(g_err, "CHECK FAILED [%s]: %s\n", what.c_str(), problem.c_str());
      }
    }
  }
};

// One timed campaign.
struct Sample {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  size_t scenarios = 0;
  uint64_t journal_bytes = 0;
};

// Times `run` (wall and CPU, children included).
template <typename F>
auto Timed(Sample* sample, F&& run) {
  double cpu = CpuMs();
  double start = NowMs();
  auto result = run();
  sample->wall_ms = NowMs() - start;
  sample->cpu_ms = CpuMs() - cpu;
  return result;
}

std::optional<CampaignOutcome> Drive(const CampaignSpec& spec, const std::string& tool,
                                     Verdict& v) {
  CampaignDriver driver(spec);
  driver.set_tool_path(tool);
  std::string error;
  auto outcome = driver.Run(&error);
  v.Expect(outcome.has_value(), "campaign failed: " + error);
  v.Expect(!outcome || outcome->ok, "campaign reported not ok");
  return outcome;
}

// Fills the analysis cache the way every campaign's setup does: the library
// profiles plus the call-site reports of each system against them.
void FillAnalysis(Tracer& tracer) {
  lfi::AnalysisCache& cache = lfi::AnalysisCache::Instance();
  const lfi::FaultProfile& libc = cache.Profile("libc", lfi::LibcProfile);
  const lfi::FaultProfile& libxml = cache.Profile("libxml2", lfi::LibxmlProfile);
  for (const lfi::AppBinary* binary : {&lfi::GitBinary(), &lfi::MysqlBinary(), &lfi::BindBinary(),
                                       &lfi::PbftBinary(), &lfi::BfsBinary()}) {
    Tracer::Scope span = tracer.Open("analysis.reports");
    cache.Reports(binary->image(), libc);
  }
  Tracer::Scope span = tracer.Open("analysis.reports");
  cache.Reports(lfi::BindBinary().image(), libxml);
}

// --- metrics and shared context ---------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string samples = {};  // what the value was taken over, for the table
};

struct Context {
  uint64_t seed = 1;
  std::string tool;
  std::string workdir;
  Expectations expected;
};

// --- workloads ----------------------------------------------------------------

class Workload {
 public:
  explicit Workload(Context& ctx) : ctx_(ctx) {}
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  virtual size_t cycle() const = 0;
  // True when a whole cycle is the unit users wait for (one Table 1 round),
  // so the latency metrics time cycles rather than single CampaignDriver runs.
  virtual bool cycle_is_campaign() const { return false; }
  // Builds the inputs the timed campaigns need into `dir` (set-up, timed
  // as setup_s).
  virtual void Prepare(const std::string& dir, Checks& checks) {
    dir_ = dir;
    (void)checks;
  }
  // Builds what the checks compare against, after set-up and untimed: these
  // are the benchmark's own references, not inputs the program needs.
  virtual void BuildReferences(Checks& checks) { (void)checks; }
  // Runs campaign `i` of the cycle and checks its output. Traced runs record
  // spans and do the layer attribution outside the sample's timer.
  virtual Sample Run(size_t i, Tracer* tracer, Verdict& v) = 0;
  // Per-layer metrics from a traced pass of `samples` timed samples
  // (campaigns, or whole cycles when cycle_is_campaign).
  virtual void LayerMetrics(Tracer& tracer, size_t samples, Checks& checks,
                            std::vector<Metric>* out) = 0;

 protected:
  // Compares a fresh outcome with the expectation recorded for (workload,
  // key) -- when there is one -- and with the first outcome this process saw
  // for the same key, journal bytes included.
  void CheckAgainstReference(const std::string& key, const CampaignOutcome& outcome,
                             const std::string& journal_digest, Verdict& v) {
    std::string digest = OutcomeDigest(outcome);
    auto expected = ctx_.expected.find({name(), key});
    if (expected != ctx_.expected.end()) {
      v.Expect(digest == expected->second,
               key + ": outcome " + digest + " differs from the recorded " + expected->second);
    }
    auto [it, fresh] = reference_.emplace(key, std::make_pair(digest, journal_digest));
    if (!fresh) {
      v.Expect(digest == it->second.first,
               key + ": outcome " + digest + " differs from this run's first " + it->second.first);
      v.Expect(journal_digest == it->second.second,
               key + ": journal bytes differ from this run's first journal");
    }
  }

  Context& ctx_;
  std::string dir_;
  std::map<std::string, std::pair<std::string, std::string>> reference_;
};

CampaignSpec ExploreSpec(uint64_t seed, const std::string& journal) {
  CampaignSpec spec;
  spec.system = "pbft";
  spec.mode = CampaignMode::kExplore;
  spec.strategy = lfi::ExploreStrategy::kRandom;
  spec.budget = kExploreBudget;
  spec.seed = seed;
  spec.workers = 1;
  spec.journal_path = journal;
  return spec;
}

CampaignSpec Table1Spec(const std::string& system, const std::string& journal) {
  CampaignSpec spec;
  spec.system = system;
  spec.mode = CampaignMode::kTable1;
  spec.exhaustive = true;
  spec.workers = 1;
  spec.journal_path = journal;
  return spec;
}

CampaignSpec EpochSpec(uint64_t seed, size_t shards, const std::string& journal) {
  CampaignSpec spec;
  spec.system = "pbft";
  spec.mode = CampaignMode::kExplore;
  spec.strategy = lfi::ExploreStrategy::kCoverage;
  spec.epoch_len = 2;
  spec.shard_count = shards;
  spec.seed = seed;
  spec.workers = 1;
  spec.journal_path = journal;
  return spec;
}

CampaignSpec ResumeSpec(const std::string& journal) {
  CampaignSpec spec;
  spec.mode = CampaignMode::kResume;
  spec.workers = 1;
  spec.journal_path = journal;
  return spec;
}

const lfi::FaultProfile& Libc() {
  return lfi::AnalysisCache::Instance().Profile("libc", lfi::LibcProfile);
}

// pbft's exploration inputs, as CampaignDriver derives them.
const std::vector<lfi::CallSiteReport>& PbftReports() {
  return lfi::AnalysisCache::Instance().Reports(lfi::PbftBinary().image(), Libc());
}

// A pbft exploration campaign rebuilt from public parts -- the spec's source,
// PbftWarmFactory(20, 3000) and a CampaignEngine -- with spans around the
// source and every warm-pool build, run and reset. Writes the same journal
// bytes as CampaignDriver for the same spec (checked).
std::optional<CampaignOutcome> RunRebuiltExplore(const CampaignSpec& spec, Tracer& tracer,
                                                 Verdict& v,
                                                 const char* campaign_span = "campaign") {
  lfi::EnsureStockTriggersRegistered();
  const std::vector<lfi::CallSiteReport>& reports = PbftReports();
  std::unique_ptr<lfi::ScenarioSource> source;
  if (spec.strategy == lfi::ExploreStrategy::kRandom) {
    std::set<std::string> functions;
    for (const lfi::CallSiteReport& report : reports) {
      functions.insert(report.site.function);
    }
    source = std::make_unique<lfi::RandomSweepSource>(
        Libc(), std::vector<std::string>(functions.begin(), functions.end()), spec.budget,
        spec.seed);
  } else {
    lfi::CoverageGuidedSource::Options options;
    options.budget = spec.budget != 0 ? spec.budget : 64;
    options.seed = spec.seed;
    source = std::make_unique<lfi::CoverageGuidedSource>(reports, Libc(), options);
  }
  perfbench::TracedSource traced(*source, tracer);
  lfi::CampaignEngine::Options options;
  options.workers = 1;
  options.journal_path = spec.journal_path;
  options.resume = spec.resume;
  options.journal_meta = spec.ToJournalMeta();
  options.epoch_len = spec.epoch_len;
  options.system = spec.system;
  lfi::WarmPool pool(perfbench::TracedFactory(lfi::PbftWarmFactory(20, 3000), tracer));
  Tracer::Scope campaign = tracer.OpenCampaign(campaign_span);
  lfi::ExplorationResult result;
  try {
    result = lfi::CampaignEngine(options).Run(traced, pool.AsRunner());
  } catch (const std::exception& e) {
    v.Expect(false, std::string("rebuilt campaign failed: ") + e.what());
    return std::nullopt;
  }
  CampaignOutcome outcome;
  outcome.bugs = std::move(result.bugs);
  outcome.coverage = std::move(result.coverage);
  outcome.scenarios_run = result.scenarios_run;
  return outcome;
}

double PerCount(const std::map<std::string, perfbench::SpanTotals>& totals, const char* span,
                double divisor, bool self = false) {
  auto it = totals.find(span);
  if (it == totals.end() || divisor <= 0.0) {
    return 0.0;
  }
  return (self ? it->second.self_ms : it->second.total_ms) / divisor;
}

size_t SpanCount(const std::map<std::string, perfbench::SpanTotals>& totals, const char* span) {
  auto it = totals.find(span);
  return it == totals.end() ? 0 : it->second.count;
}

// pbft random sweeps over a cycle of consecutive campaign seeds: the
// target-heavy workload.
class PbftExplore : public Workload {
 public:
  using Workload::Workload;
  const char* name() const override { return "pbft-explore"; }
  size_t cycle() const override { return kExploreCycle; }

  Sample Run(size_t i, Tracer* tracer, Verdict& v) override {
    uint64_t seed = CampaignSeed(ctx_.seed, i);
    std::string journal = dir_ + lfi::StrFormat("/pe-%llu.journal", (unsigned long long)seed);
    fs::remove(journal);
    CampaignSpec spec = ExploreSpec(seed, journal);
    Sample sample;
    auto outcome = Timed(&sample, [&]() -> std::optional<CampaignOutcome> {
      if (tracer != nullptr) {
        return RunRebuiltExplore(spec, *tracer, v);
      }
      return Drive(spec, ctx_.tool, v);
    });
    if (outcome) {
      sample.scenarios = outcome->scenarios_run;
      sample.journal_bytes = FileBytes(journal);
      v.Expect(outcome->scenarios_run == kExploreBudget, "a campaign ran short of its budget");
      CheckAgainstReference(std::to_string(seed), *outcome, FileDigest(journal), v);
    }
    return sample;
  }

  void LayerMetrics(Tracer& tracer, size_t campaigns, Checks&, std::vector<Metric>* out) override {
    auto totals = tracer.Summarize();
    double builds = tracer.counter("warm.builds");
    out->push_back({"target.run_ms_per_job.pbft",
                    PerCount(totals, "target.run", tracer.counter("target.jobs")), "ms"});
    out->push_back({"warm_pool.build_ms", PerCount(totals, "warm.build", builds), "ms"});
    out->push_back({"warm_pool.builds", builds / static_cast<double>(campaigns), "count"});
  }
};

// The paper's Table 1 campaign, one journal per system, in canonical order.
class Table1 : public Workload {
 public:
  using Workload::Workload;
  const char* name() const override { return "table1"; }
  size_t cycle() const override { return std::size(kSystems); }
  bool cycle_is_campaign() const override { return true; }

  Sample Run(size_t i, Tracer* tracer, Verdict& v) override {
    std::string system = kSystems[i];
    std::string journal = dir_ + "/t1-" + system + ".journal";
    fs::remove(journal);
    CampaignSpec spec = Table1Spec(system, journal);
    Sample sample;
    auto outcome = Timed(&sample, [&] {
      Tracer::Scope span = tracer != nullptr ? tracer->OpenCampaign("campaign")
                                             : Tracer::Scope(nullptr, -1);
      return Drive(spec, ctx_.tool, v);
    });
    if (outcome) {
      sample.scenarios = outcome->scenarios_run;
      sample.journal_bytes = FileBytes(journal);
      v.Expect(outcome->bugs.size() == kTable1Bugs.at(system),
               lfi::StrFormat("%s found %zu bugs, Table 1 has %zu", system.c_str(),
                              outcome->bugs.size(), kTable1Bugs.at(system)));
      CheckAgainstReference(system, *outcome, FileDigest(journal), v);
    }
    if (tracer != nullptr) {
      // The same campaign with the journal off: the difference is the
      // journal's cost inside CampaignDriver, derived by subtraction.
      CampaignSpec off = Table1Spec(system, "");
      Sample unjournaled;
      auto plain = Timed(&unjournaled, [&] { return Drive(off, ctx_.tool, v); });
      journal_on_ms_ += sample.wall_ms;
      journal_off_ms_ += unjournaled.wall_ms;
      if (outcome && plain) {
        v.Expect(OutcomeDigest(*plain) == OutcomeDigest(*outcome),
                 system + ": the unjournaled campaign's outcome differs");
      }
    }
    return sample;
  }

  void LayerMetrics(Tracer& tracer, size_t rounds, Checks& checks,
                    std::vector<Metric>* out) override {
    out->push_back({"journal.cost_ms_per_table1_round",
                    (journal_on_ms_ - journal_off_ms_) / static_cast<double>(rounds), "ms"});

    // Encoding and decoding of the same records, outside the engine: load
    // each system's journal and write its records again; the copy must be
    // byte-identical to the original.
    size_t records = 0;
    double injections = 0.0;
    uint64_t bytes = 0;
    for (const char* system : kSystems) {
      std::string journal = dir_ + "/t1-" + system + ".journal";
      std::string copy = journal + ".reencoded";
      Verdict v;
      std::optional<lfi::CampaignJournal> loaded;
      {
        Tracer::Scope span = tracer.Open("journal.load");
        loaded = lfi::CampaignJournal::Load(journal);
      }
      v.Expect(loaded.has_value(), std::string(system) + ": journal does not load");
      if (loaded) {
        fs::remove(copy);
        lfi::CampaignJournal writer;
        v.Expect(writer.Create(copy, loaded->metadata(), nullptr, loaded->format()),
                 "cannot create the re-encoded journal");
        for (const lfi::JournalRecord& record : loaded->records()) {
          Tracer::Scope span = tracer.Open("journal.append");
          v.Expect(writer.Append(record), "append failed");
          injections += static_cast<double>(record.result.injections);
        }
        {
          Tracer::Scope span = tracer.Open("journal.finalize");
          v.Expect(writer.Finalize(), "finalize failed");
        }
        v.Expect(FileDigest(copy) == FileDigest(journal),
                 std::string(system) + ": re-encoded journal differs from the engine's");
        records += loaded->records().size();
        bytes += FileBytes(journal);
      }
      checks.Record(std::string("table1 journal re-encode ") + system, v);
    }
    auto totals = tracer.Summarize();
    out->push_back({"journal.append_us_per_record",
                    1e3 * PerCount(totals, "journal.append", static_cast<double>(records)), "us"});
    out->push_back({"journal.finalize_ms",
                    PerCount(totals, "journal.finalize",
                             static_cast<double>(SpanCount(totals, "journal.finalize"))),
                    "ms"});
    out->push_back({"journal.bytes_per_record",
                    static_cast<double>(bytes) / static_cast<double>(std::max<size_t>(records, 1)),
                    "bytes"});
    out->push_back({"target.injections_per_job",
                    injections / static_cast<double>(std::max<size_t>(records, 1)), "count"});

    // Target and warm-reset cost per system, timed on the public warm
    // factories over each system's analyzer jobs (the Table 1 job lists are
    // private to CampaignDriver, so this is measured beside it, not inside
    // it).
    struct Factory {
      const char* system;
      lfi::WarmPool::Factory factory;
      const lfi::AppBinary& binary;
    };
    std::vector<Factory> factories;
    factories.push_back({"git", lfi::GitWarmFactory(), lfi::GitBinary()});
    factories.push_back({"mysql", lfi::MysqlWarmFactory(), lfi::MysqlBinary()});
    factories.push_back({"bind", lfi::BindWarmFactory(), lfi::BindBinary()});
    factories.push_back({"bfs", lfi::BfsWarmFactory(2, 600), lfi::BfsBinary()});
    double reset_ms = 0.0;
    double resets = 0.0;
    double dropped = 0.0;
    for (Factory& entry : factories) {
      Tracer per_system(true);
      lfi::WarmPool pool(perfbench::TracedFactory(entry.factory, per_system));
      std::vector<lfi::CampaignJob> jobs = lfi::AnalyzerJobs(entry.binary.image(), Libc());
      if (std::string(entry.system) == "bind") {
        const lfi::FaultProfile& libxml =
            lfi::AnalysisCache::Instance().Profile("libxml2", lfi::LibxmlProfile);
        for (lfi::CampaignJob& job : lfi::AnalyzerJobs(entry.binary.image(), libxml)) {
          jobs.push_back(std::move(job));
        }
      }
      for (int rep = 0; rep < kFactoryReps; ++rep) {
        for (const lfi::CampaignJob& job : jobs) {
          pool.RunJob(job);
        }
      }
      auto per = per_system.Summarize();
      out->push_back({std::string("target.run_ms_per_job.") + entry.system,
                      PerCount(per, "target.run", per_system.counter("target.jobs")), "ms"});
      reset_ms += PerCount(per, "warm.reset", 1.0);
      resets += static_cast<double>(SpanCount(per, "warm.reset"));
      dropped += static_cast<double>(pool.stats().dropped);
    }
    out->push_back(
        {"warm_pool.reset_us_per_job", resets > 0 ? 1e3 * reset_ms / resets : 0.0, "us"});
    out->push_back({"warm_pool.dropped", dropped, "count"});
  }

 private:
  double journal_on_ms_ = 0.0;
  double journal_off_ms_ = 0.0;
};

// Resume of finished journals: the journal layer read back, no target work.
class Resume : public Workload {
 public:
  using Workload::Workload;
  const char* name() const override { return "resume"; }
  size_t cycle() const override { return inputs_.size(); }

  void Prepare(const std::string& dir, Checks& checks) override {
    dir_ = dir;
    inputs_.clear();
    for (const char* system : kSystems) {
      Input input;
      input.journal = dir + "/t1-" + system + ".journal";
      input.key = system;
      input.expect_as = "table1";
      input.spec = Table1Spec(system, input.journal);
      inputs_.push_back(input);
    }
    for (size_t i = 0; i < kResumeExploreJournals; ++i) {
      uint64_t seed = CampaignSeed(ctx_.seed, i);
      Input input;
      input.journal = dir + lfi::StrFormat("/pe-%llu.journal", (unsigned long long)seed);
      input.key = std::to_string(seed);
      input.expect_as = "pbft-explore";
      input.spec = ExploreSpec(seed, input.journal);
      inputs_.push_back(input);
    }
    for (Input& input : inputs_) {
      Verdict v;
      auto outcome = Drive(input.spec, ctx_.tool, v);
      if (outcome) {
        input.digest = OutcomeDigest(*outcome);
        input.journal_digest = FileDigest(input.journal);
        auto expected = ctx_.expected.find({input.expect_as, input.key});
        v.Expect(expected == ctx_.expected.end() || expected->second == input.digest,
                 input.key + ": input campaign differs from the recorded outcome");
      }
      checks.Record("resume input " + input.key, v);
    }
  }

  Sample Run(size_t i, Tracer* tracer, Verdict& v) override {
    const Input& input = inputs_[i];
    Sample sample;
    auto outcome = Timed(&sample, [&]() -> std::optional<CampaignOutcome> {
      if (tracer != nullptr && input.expect_as == "pbft-explore") {
        CampaignSpec spec = input.spec;
        spec.resume = true;
        return RunRebuiltExplore(spec, *tracer, v);
      }
      Tracer::Scope span = tracer != nullptr ? tracer->OpenCampaign("campaign.driver")
                                             : Tracer::Scope(nullptr, -1);
      return Drive(ResumeSpec(input.journal), ctx_.tool, v);
    });
    if (outcome) {
      sample.scenarios = outcome->scenarios_run;
      sample.journal_bytes = FileBytes(input.journal);
      v.Expect(OutcomeDigest(*outcome) == input.digest,
               input.key + ": resume outcome differs from the original campaign's");
      v.Expect(FileDigest(input.journal) == input.journal_digest,
               input.key + ": resume changed the journal's bytes");
    }
    if (tracer != nullptr) {
      // Decoding alone, on the same file.
      Tracer::Scope span = tracer->Open("journal.load");
      auto loaded = lfi::CampaignJournal::Load(input.journal);
      v.Expect(loaded.has_value(), input.key + ": journal does not load");
      tracer->Count("journal.records", loaded ? static_cast<double>(loaded->records().size()) : 0);
    }
    return sample;
  }

  void LayerMetrics(Tracer& tracer, size_t, Checks&, std::vector<Metric>* out) override {
    auto totals = tracer.Summarize();
    out->push_back({"engine.self_ms_per_campaign",
                    PerCount(totals, "campaign",
                             static_cast<double>(SpanCount(totals, "campaign")), true),
                    "ms"});
    out->push_back({"journal.load_us_per_record",
                    1e3 * PerCount(totals, "journal.load", tracer.counter("journal.records")),
                    "us"});
  }

 private:
  struct Input {
    std::string journal;
    std::string key;
    std::string expect_as;
    CampaignSpec spec;
    std::string digest;
    std::string journal_digest;
  };
  std::vector<Input> inputs_;
};

// pbft coverage exploration at epoch-len 2 over 2 spawned shard processes.
class EpochShards : public Workload {
 public:
  using Workload::Workload;
  const char* name() const override { return "epoch-shards"; }
  size_t cycle() const override { return kEpochCycle; }

  // The single-process --epoch-len journals the sharded runs must equal.
  void BuildReferences(Checks& checks) override {
    references_.clear();
    for (size_t i = 0; i < kEpochCycle; ++i) {
      uint64_t seed = CampaignSeed(ctx_.seed, i);
      std::string journal = dir_ + lfi::StrFormat("/single-%llu.journal", (unsigned long long)seed);
      Verdict v;
      auto outcome = Drive(EpochSpec(seed, 1, journal), ctx_.tool, v);
      Reference ref;
      if (outcome) {
        ref.digest = OutcomeDigest(*outcome);
        ref.journal_digest = FileDigest(journal);
        auto expected = ctx_.expected.find({name(), std::to_string(seed)});
        v.Expect(expected == ctx_.expected.end() || expected->second == ref.digest,
                 std::to_string(seed) + ": single-process run differs from the recorded outcome");
      }
      references_.push_back(ref);
      checks.Record("epoch-shards reference", v);
    }
  }

  Sample Run(size_t i, Tracer* tracer, Verdict& v) override {
    uint64_t seed = CampaignSeed(ctx_.seed, i);
    std::string campaign_dir = dir_ + lfi::StrFormat("/es-%llu", (unsigned long long)seed);
    fs::remove_all(campaign_dir);
    fs::create_directories(campaign_dir);
    std::string journal = campaign_dir + "/merged.journal";
    CampaignSpec spec = EpochSpec(seed, 2, journal);
    Sample sample;
    double child_cpu = UsageMs(RUSAGE_CHILDREN);
    auto outcome = Timed(&sample, [&] {
      Tracer::Scope span = tracer != nullptr ? tracer->OpenCampaign("campaign")
                                             : Tracer::Scope(nullptr, -1);
      return Drive(spec, ctx_.tool, v);
    });
    child_cpu = UsageMs(RUSAGE_CHILDREN) - child_cpu;
    const Reference& ref = references_[i];
    if (outcome) {
      sample.scenarios = outcome->scenarios_run;
      sample.journal_bytes = FileBytes(journal);
      v.Expect(OutcomeDigest(*outcome) == ref.digest,
               std::to_string(seed) + ": sharded outcome differs from the single-process run");
      v.Expect(FileDigest(journal) == ref.journal_digest,
               std::to_string(seed) +
                   ": merged journal is not byte-identical to the single-process journal");
    }
    if (tracer != nullptr && outcome) {
      tracer->Count("shard.child_cpu_ms", child_cpu);
      tracer->Count("shard.cpu_ms", sample.cpu_ms);
      ReplayMerge(spec, journal, *tracer, v);
      // The same spec in one process, rebuilt from public parts with spans
      // around the coverage-guided source: the exploration layer's cost.
      std::string single = campaign_dir + "/single.journal";
      Sample one;
      auto rebuilt = Timed(&one, [&] {
        return RunRebuiltExplore(EpochSpec(seed, 1, single), *tracer, v, "campaign.single");
      });
      tracer->Count("shard.single_cpu_ms", one.cpu_ms);
      v.Expect(rebuilt && OutcomeDigest(*rebuilt) == ref.digest,
               std::to_string(seed) + ": rebuilt single-process outcome differs");
      v.Expect(FileDigest(single) == ref.journal_digest,
               std::to_string(seed) +
                   ": rebuilt single-process journal differs from CampaignDriver's");
    }
    fs::remove_all(campaign_dir);
    return sample;
  }

  void LayerMetrics(Tracer& tracer, size_t campaigns, Checks&, std::vector<Metric>* out) override {
    auto totals = tracer.Summarize();
    double n = static_cast<double>(campaigns);
    double jobs = tracer.counter("source.jobs");
    out->push_back({"exploration.next_batch_us_per_job",
                    1e3 * PerCount(totals, "source.next_batch", jobs), "us"});
    out->push_back({"exploration.on_feedback_us_per_job",
                    1e3 * PerCount(totals, "source.on_feedback", jobs), "us"});
    out->push_back({"shard.child_cpu_ms", tracer.counter("shard.child_cpu_ms") / n, "ms"});
    double single = tracer.counter("shard.single_cpu_ms");
    out->push_back({"shard.cpu_overhead_ratio",
                    single > 0 ? tracer.counter("shard.cpu_ms") / single : 0.0, "ratio"});
    out->push_back({"shard.merge_ms", PerCount(totals, "shard.merge", n), "ms"});
    out->push_back({"shard.epochs", tracer.counter("shard.epochs") / n, "count"});
  }

 private:
  // Merges each epoch's sealed shard journals again, outside the
  // orchestrator, through MergeRecordsInto; the result must equal the
  // orchestrator's merged journal byte for byte.
  void ReplayMerge(const CampaignSpec& spec, const std::string& journal, Tracer& tracer,
                   Verdict& v) {
    std::string copy = journal + ".remerged";
    lfi::CampaignJournal merged;
    std::string error;
    v.Expect(merged.Create(copy, spec.ToJournalMeta(), &error), "cannot create: " + error);
    lfi::MergeFoldState fold;
    size_t epoch = 0;
    for (; fs::exists(spec.EpochFrontierPath(epoch)); ++epoch) {
      std::vector<lfi::CampaignJournal> inputs;
      for (size_t shard = 0; shard < spec.shard_count; ++shard) {
        Tracer::Scope span = tracer.Open("journal.load");
        auto loaded = lfi::CampaignJournal::Load(spec.EpochShardJournalPath(epoch, shard), &error);
        v.Expect(loaded.has_value(), "epoch shard journal does not load: " + error);
        if (loaded) {
          inputs.push_back(std::move(*loaded));
        }
      }
      Tracer::Scope span = tracer.Open("shard.merge");
      v.Expect(lfi::MergeRecordsInto(merged, inputs, &fold, &error), "merge failed: " + error);
    }
    v.Expect(merged.Finalize(&error), "finalize failed: " + error);
    v.Expect(FileDigest(copy) == FileDigest(journal),
             "re-merged epoch journals differ from the orchestrator's merged journal");
    tracer.Count("shard.epochs", static_cast<double>(epoch));
  }

  struct Reference {
    std::string digest;
    std::string journal_digest;
  };
  std::vector<Reference> references_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, Context& ctx) {
  if (name == "pbft-explore") {
    return std::make_unique<PbftExplore>(ctx);
  }
  if (name == "table1") {
    return std::make_unique<Table1>(ctx);
  }
  if (name == "resume") {
    return std::make_unique<Resume>(ctx);
  }
  if (name == "epoch-shards") {
    return std::make_unique<EpochShards>(ctx);
  }
  return nullptr;
}

// --- passes -----------------------------------------------------------------

struct Pass {
  std::vector<Sample> samples;
  double wall_ms() const {
    double sum = 0.0;
    for (const Sample& s : samples) {
      sum += s.wall_ms;
    }
    return sum;
  }
  size_t scenarios() const {
    size_t sum = 0;
    for (const Sample& s : samples) {
      sum += s.scenarios;
    }
    return sum;
  }
  double scenarios_per_s() const { return scenarios() / (wall_ms() / 1e3); }
  void Append(const Pass& other) {
    samples.insert(samples.end(), other.samples.begin(), other.samples.end());
  }
};

// Whole cycles of campaigns until their summed wall time reaches `seconds`
// (one cycle when `seconds` is 0).
Pass RunPass(Workload& workload, double seconds, Tracer* tracer, Checks& checks) {
  Pass pass;
  do {
    Sample round;
    for (size_t i = 0; i < workload.cycle(); ++i) {
      Verdict v;
      Sample s = workload.Run(i, tracer, v);
      checks.Record(std::string(workload.name()) + " campaign", v);
      if (!workload.cycle_is_campaign()) {
        pass.samples.push_back(s);
        continue;
      }
      round.wall_ms += s.wall_ms;
      round.cpu_ms += s.cpu_ms;
      round.scenarios += s.scenarios;
      round.journal_bytes += s.journal_bytes;
    }
    if (workload.cycle_is_campaign()) {
      pass.samples.push_back(round);
    }
  } while (pass.wall_ms() < seconds * 1e3);
  return pass;
}

// Clears the analysis cache (in-memory only) and fills it again, then builds
// the workload's inputs in a fresh directory. Returns seconds taken.
double SetUp(Workload& workload, const std::string& dir, Tracer& tracer, Checks& checks) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  double start = NowMs();
  lfi::AnalysisCache::Instance().Clear();
  FillAnalysis(tracer);
  workload.Prepare(dir, checks);
  return (NowMs() - start) / 1e3;
}

// --- the hang probe -----------------------------------------------------------

// Child side: one bind coverage campaign that hits the EINTR hang, under a
// job timeout. Prints "<abandoned jobs> <leaked MB> <campaign ms>" and
// exits at once -- the abandoned thread keeps retrying until the process
// ends.
int HangProbeChild() {
  CampaignSpec spec;
  spec.system = "bind";
  spec.mode = CampaignMode::kExplore;
  spec.strategy = lfi::ExploreStrategy::kCoverage;
  spec.budget = kHangBudget;
  spec.seed = 1;
  spec.workers = 1;
  spec.job_timeout_ms = kHangTimeoutMs;
  double before = StatusMb("VmRSS");
  double start = NowMs();
  std::string error;
  auto outcome = CampaignDriver(spec).Run(&error);
  double ms = NowMs() - start;
  double after = StatusMb("VmRSS");
  size_t hangs = 0;
  if (outcome) {
    for (const lfi::FoundBug& bug : outcome->bugs) {
      hangs += bug.kind == "hang" ? 1 : 0;
    }
  }
  std::printf("%d %zu %.6f %.6f\n", outcome ? 1 : 0, hangs, after - before, ms);
  std::fflush(stdout);
  _exit(0);
}

struct HangProbe {
  bool ran = false;
  size_t abandoned = 0;
  double leaked_mb = 0.0;
  double campaign_ms = 0.0;
};

// Parent side: spawns this binary with --hang-probe, reads its line, and
// kills it if it has not finished within 60 s.
HangProbe RunHangProbe(const std::string& self, const std::string& workdir) {
  HangProbe probe;
  int fds[2];
  if (pipe(fds) != 0) {
    return probe;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  std::vector<std::string> args = {self, "--hang-probe", "--workdir", workdir};
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  argv.push_back(nullptr);
  pid_t pid = -1;
  int rc = posix_spawn(&pid, self.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    return probe;
  }
  std::string text;
  double deadline = NowMs() + 60e3;
  char buf[256];
  while (NowMs() < deadline) {
    pollfd p{fds[0], POLLIN, 0};
    if (poll(&p, 1, 100) > 0) {
      ssize_t n = read(fds[0], buf, sizeof buf);
      if (n <= 0) {
        break;
      }
      text.append(buf, static_cast<size_t>(n));
    }
  }
  close(fds[0]);
  int status = 0;
  if (waitpid(pid, &status, WNOHANG) == 0) {
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
  }
  int ok = 0;
  if (std::sscanf(text.c_str(), "%d %zu %lf %lf", &ok, &probe.abandoned, &probe.leaked_mb,
                  &probe.campaign_ms) == 4) {
    probe.ran = ok == 1;
  }
  return probe;
}

// --- output -------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string tool;
  std::string workdir;
  std::string expected;
  std::string seeds;
  bool record = false;
  bool hang_probe = false;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) {
        return std::nullopt;
      }
      return std::string(argv[++i]);
    };
    std::optional<std::string> v;
    if (flag == "--record") {
      args.record = true;
      continue;
    }
    if (flag == "--hang-probe") {
      args.hang_probe = true;
      continue;
    }
    if (!(v = value())) {
      return std::nullopt;
    }
    if (flag == "--workload") {
      args.workload = *v;
    } else if (flag == "--seed") {
      auto n = lfi::ParseInt(*v);
      if (!n || *n < 0) {
        return std::nullopt;
      }
      args.seed = static_cast<uint64_t>(*n);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v->c_str(), nullptr);
      if (!(args.seconds > 0)) {
        return std::nullopt;
      }
    } else if (flag == "--trace") {
      if (*v != "0" && *v != "1") {
        return std::nullopt;
      }
      args.trace = *v == "1";
    } else if (flag == "--tool") {
      args.tool = *v;
    } else if (flag == "--workdir") {
      args.workdir = *v;
    } else if (flag == "--expected") {
      args.expected = *v;
    } else if (flag == "--seeds") {
      args.seeds = *v;
    } else {
      return std::nullopt;
    }
  }
  return args;
}

void PrintMetrics(std::FILE* out, const std::vector<Metric>& metrics, const Checks& checks) {
  std::string json = lfi::StrFormat(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
      checks.failed == 0 && checks.attempted > 0 ? "true" : "false", checks.attempted,
      checks.failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += lfi::StrFormat("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                           metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  json += "}}";
  std::fprintf(out, "%s\n", json.c_str());
}

// Expectation lines for the given bench seeds ("A-B" or "A").
int Record(const Args& args, Context& ctx) {
  uint64_t first = 0;
  uint64_t last = 0;
  std::vector<std::string> range = lfi::Split(args.seeds, '-');
  auto a = lfi::ParseInt(range[0]);
  auto b = lfi::ParseInt(range.size() > 1 ? range[1] : range[0]);
  if (!a || !b || *a < 0 || *b < *a) {
    std::fprintf(stderr, "--seeds wants A-B\n");
    return 2;
  }
  first = static_cast<uint64_t>(*a);
  last = static_cast<uint64_t>(*b);
  fs::create_directories(ctx.workdir);
  std::string journal = ctx.workdir + "/record.journal";
  auto emit = [&](const char* workload, const std::string& key, const CampaignSpec& spec) {
    fs::remove(journal);
    Verdict v;
    auto outcome = Drive(spec, ctx.tool, v);
    if (!outcome) {
      std::fprintf(stderr, "%s %s: %s\n", workload, key.c_str(), v.problems.front().c_str());
      return false;
    }
    std::printf("%s\t%s\t%s\n", workload, key.c_str(), OutcomeDigest(*outcome).c_str());
    return true;
  };
  std::printf("# workload\tkey\tscenarios, recovery blocks covered/total, bugs:sha1 prefix\n");
  for (const char* system : kSystems) {
    if (!emit("table1", system, Table1Spec(system, journal))) {
      return 1;
    }
  }
  for (uint64_t seed = first; seed <= last; ++seed) {
    for (size_t i = 0; i < kExploreCycle; ++i) {
      uint64_t cs = CampaignSeed(seed, i);
      if (!emit("pbft-explore", std::to_string(cs), ExploreSpec(cs, journal))) {
        return 1;
      }
    }
    for (size_t i = 0; i < kEpochCycle; ++i) {
      uint64_t cs = CampaignSeed(seed, i);
      if (!emit("epoch-shards", std::to_string(cs), EpochSpec(cs, 1, journal))) {
        return 1;
      }
    }
  }
  fs::remove(journal);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Args> parsed = ParseArgs(argc, argv);
  if (!parsed || parsed->workdir.empty()) {
    std::fprintf(stderr,
                 "usage: campaign_bench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--tool LFI_TOOL --workdir DIR [--expected FILE]\n"
                 "       campaign_bench --record --seeds A-B --tool LFI_TOOL --workdir DIR\n"
                 "       campaign_bench --hang-probe --workdir DIR\n");
    return 2;
  }
  Args args = *parsed;
  // The analysis cache stays in memory for this process, so every setup
  // really computes the analysis.
  unsetenv("LFI_ANALYSIS_CACHE");
  lfi::AnalysisCache::Instance().SetPersistDir("");
  if (args.hang_probe) {
    return HangProbeChild();
  }
  Context ctx;
  ctx.seed = args.seed;
  ctx.tool = args.tool;
  ctx.workdir = args.workdir;
  if (args.record) {
    return Record(args, ctx);
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, ctx);
  if (workload == nullptr || args.tool.empty() || !fs::exists(args.tool)) {
    std::fprintf(stderr, "unknown workload '%s' or missing --tool\n", args.workload.c_str());
    return 2;
  }
  if (!args.expected.empty()) {
    ctx.expected = LoadExpectations(args.expected);
  }
  fs::remove_all(args.workdir);
  fs::create_directories(args.workdir);

  // Spawned shard children print their reports to stderr; they go to a log
  // file, and the benchmark's own diagnostics to the original stderr.
  int err_fd = dup(2);
  int log_fd = open((args.workdir + "/children.log").c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (err_fd < 0 || log_fd < 0 || dup2(log_fd, 2) < 0) {
    std::perror("redirecting stderr");
    return 1;
  }
  close(log_fd);
  g_err = fdopen(err_fd, "w");
  std::FILE* out = stdout;

  unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  double parallelism = EffectiveParallelism(nproc);
  Checks checks;
  std::vector<Metric> metrics;
  std::string detail;

  if (!args.trace) {
    Tracer off(false);
    std::vector<double> setups;
    double setup_total = 0.0;
    while (setups.size() < kMinSetupReps || setup_total < kMinSetupSeconds) {
      setups.push_back(SetUp(*workload, args.workdir + "/setup", off, checks));
      setup_total += setups.back();
    }
    workload->BuildReferences(checks);
    // Shard children load the analysis from a disk cache that the warm-up
    // campaign fills, as repeated CLI runs sharing LFI_ANALYSIS_CACHE do.
    setenv("LFI_ANALYSIS_CACHE", (args.workdir + "/acache").c_str(), 1);
    {
      Verdict v;
      workload->Run(0, nullptr, v);
      checks.Record(std::string(args.workload) + " warm-up", v);
    }
    double spin_before = SpinMs(kSpinIterations);
    Pass pass = RunPass(*workload, args.seconds, nullptr, checks);
    double spin_after = SpinMs(kSpinIterations);

    std::vector<double> walls;
    double cpu = 0.0;
    uint64_t bytes = 0;
    for (const Sample& s : pass.samples) {
      walls.push_back(s.wall_ms);
      cpu += s.cpu_ms;
      bytes += s.journal_bytes;
    }
    double scenarios = static_cast<double>(pass.scenarios());
    Tail tail = TailOf(walls);
    const char* unit = workload->cycle_is_campaign() ? "rounds" : "campaigns";
    std::string over = lfi::StrFormat("%zu %s, %zu scenarios", pass.samples.size(), unit,
                                      pass.scenarios());
    size_t passed = checks.attempted - checks.failed;
    metrics = {
        {"scenarios_per_s", pass.scenarios_per_s(), "1/s", over},
        {"campaign_ms_p50", Median(walls), "ms", over},
        {"campaign_ms_tail", tail.value, "ms",
         lfi::StrFormat("rank %zu of %zu %s", tail.rank, tail.count, unit)},
        {"cpu_ms_per_scenario", cpu / scenarios, "ms", over},
        {"setup_s", Median(setups), "s", lfi::StrFormat("median of %zu set-ups", setups.size())},
        {"peak_rss_mb", StatusMb("VmHWM"), "MB", "VmHWM"},
        {"journal_bytes_per_scenario", static_cast<double>(bytes) / scenarios, "bytes", over},
        {"ok_ratio",
         static_cast<double>(passed) / static_cast<double>(std::max<size_t>(checks.attempted, 1)),
         "ratio", lfi::StrFormat("%zu of %zu checked operations", passed, checks.attempted)},
    };
    detail = lfi::StrFormat(
        "\"samples\": %zu, \"sample\": \"%s\", \"scenarios\": %zu, \"timed_s\": %.6f, "
        "\"tail_rank\": %zu, "
        "\"tail_percentile\": %.3f, \"setup_reps\": %zu, \"calibration_spin_ms\": [%.6f, %.6f]",
        pass.samples.size(), workload->cycle_is_campaign() ? "table1 round" : "campaign",
        pass.scenarios(), pass.wall_ms() / 1e3, tail.rank,
        tail.count > 0 ? 100.0 * static_cast<double>(tail.rank) / static_cast<double>(tail.count)
                       : 0.0,
        setups.size(), spin_before, spin_after);
  } else {
    // One setup, with the analysis fill traced.
    Tracer setup_tracer(true);
    std::vector<std::unique_ptr<Workload>> all;
    for (const char* name : kWorkloads) {
      all.push_back(MakeWorkload(name, ctx));
    }
    fs::create_directories(args.workdir + "/setup");
    lfi::AnalysisCache::Instance().Clear();
    FillAnalysis(setup_tracer);
    auto setup_totals = setup_tracer.Summarize();
    metrics.push_back(
        {"analysis.reports_ms", PerCount(setup_totals, "analysis.reports", 1.0), "ms"});
    for (auto& w : all) {
      std::string dir = args.workdir + "/" + w->name();
      fs::create_directories(dir);
      w->Prepare(dir, checks);
      w->BuildReferences(checks);
    }
    setenv("LFI_ANALYSIS_CACHE", (args.workdir + "/acache").c_str(), 1);

    // Every workload traced. Untraced cycles come first (the reference the
    // traced journals must equal byte for byte) and, for the selected
    // workload, alternate with the traced ones, so that host drift hits both
    // sides of trace.overhead_ratio alike.
    double slice = std::max(1.0, args.seconds / 5.0);
    double untraced_sps = 0.0;
    double traced_sps = 0.0;
    std::string trace_dir = args.workdir + "/../traces";
    fs::create_directories(trace_dir);
    for (auto& w : all) {
      bool selected = args.workload == w->name();
      if (selected) {
        Verdict v;
        w->Run(0, nullptr, v);
        checks.Record(std::string(w->name()) + " warm-up", v);
      }
      Tracer tracer(true);
      Pass untraced;
      Pass traced;
      do {
        if (selected || untraced.samples.empty()) {
          untraced.Append(RunPass(*w, 0.0, nullptr, checks));
        }
        traced.Append(RunPass(*w, 0.0, &tracer, checks));
      } while (traced.wall_ms() < slice * 1e3);
      if (selected) {
        untraced_sps = untraced.scenarios_per_s();
        traced_sps = traced.scenarios_per_s();
      }
      w->LayerMetrics(tracer, traced.samples.size(), checks, &metrics);
      tracer.WriteChromeTrace(trace_dir + lfi::StrFormat("/%s-seed%llu-%s.json",
                                                         args.workload.c_str(),
                                                         (unsigned long long)args.seed, w->name()));
      std::fprintf(out, "self time, %s (%zu campaigns traced):\n", w->name(),
                   traced.samples.size());
      for (const auto& [span, t] : tracer.Summarize()) {
        std::fprintf(out, "  %-22s %6zu spans  total %10.3f ms  self %10.3f ms\n", span.c_str(),
                     t.count, t.total_ms, t.self_ms);
      }
    }
    metrics.push_back({"trace.overhead_ratio", traced_sps / untraced_sps, "ratio"});

    HangProbe probe = RunHangProbe(fs::canonical("/proc/self/exe").string(), args.workdir);
    Verdict v;
    v.Expect(probe.ran, "the hang probe did not complete");
    checks.Record("hang probe", v);
    metrics.push_back({"engine.abandoned_jobs", static_cast<double>(probe.abandoned), "count"});
    metrics.push_back({"engine.leaked_rss_mb", probe.leaked_mb, "MB"});
    detail = lfi::StrFormat(
        "\"hang_probe\": {\"budget\": %zu, \"job_timeout_ms\": %llu, \"campaign_ms\": %.3f}, "
        "\"derived\": {\"journal.cost_ms_per_table1_round\": \"table1 round with journals minus "
        "the same round without\", \"target.run_ms_per_job.git|mysql|bind|bfs\": \"public warm "
        "factories over each system's analyzer jobs, beside CampaignDriver\", \"shard.merge_ms\": "
        "\"epoch shard journals merged again outside the orchestrator\"}",
        kHangBudget, (unsigned long long)kHangTimeoutMs, probe.campaign_ms);
  }

  for (const Metric& m : metrics) {
    std::fprintf(out, "%-36s %14.4f %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                 m.samples.c_str());
  }

  std::fprintf(out,
               "{\"run_record\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
               "\"nproc\": %u, \"effective_parallelism\": %.4f, \"host\": \"%s\", %s}}\n",
               args.workload.c_str(), (unsigned long long)args.seed, args.trace ? 1 : 0, nproc,
               parallelism, lfi::JsonEscape(HostFingerprint()).c_str(), detail.c_str());
  PrintMetrics(out, metrics, checks);
  std::fflush(out);
  fs::remove_all(args.workdir);
  return 0;
}
