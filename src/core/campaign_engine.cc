#include "core/campaign_engine.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/analysis_cache.h"
#include "core/exploration.h"
#include "core/journal.h"
#include "core/scenario_gen.h"
#include "util/failpoint.h"
#include "util/string_util.h"
#include "util/work_queue.h"

namespace lfi {
namespace {

// The engine's side of the campaign journal: the replay prefix loaded from
// disk plus the append stream for newly merged jobs. Null when the run is
// not journaled.
class JournalHook {
 public:
  // Returns nullptr when Options carries no journal path. Throws
  // std::runtime_error on unusable journals: create/open failures, corrupt
  // files, or resuming a journal whose recorded campaign identity
  // (journal_meta) differs from this run's.
  static std::unique_ptr<JournalHook> Open(const CampaignEngine::Options& options) {
    if (options.journal_path.empty()) {
      return nullptr;
    }
    auto hook = std::unique_ptr<JournalHook>(new JournalHook());
    hook->abort_after_ = options.abort_after_records;
    std::string error;
    bool exists = [&] {
      std::FILE* f = std::fopen(options.journal_path.c_str(), "rb");
      if (f != nullptr) {
        std::fclose(f);
      }
      return f != nullptr;
    }();
    if (options.resume && exists) {
      auto loaded = CampaignJournal::Load(options.journal_path, &error);
      if (!loaded) {
        throw std::runtime_error(error);
      }
      std::string mismatch = CampaignIdentityMismatch(options.journal_path,
                                                      loaded->metadata(), options.journal_meta);
      if (!mismatch.empty()) {
        throw std::runtime_error(mismatch);
      }
      hook->journal_ = std::move(*loaded);
      if (!hook->journal_.OpenAppend(options.journal_path, &error)) {
        throw std::runtime_error(error);
      }
      return hook;
    }
    if (exists) {
      // Truncating an existing journal would silently destroy the artifact
      // resume needs -- the likeliest cause is re-running the original
      // command after a kill instead of `resume`.
      throw std::runtime_error("journal " + options.journal_path +
                               " already exists; resume it to continue the campaign, or "
                               "delete it to start fresh");
    }
    // Fresh journal; a resume of a never-created file (killed before the
    // header was written) degenerates to the same thing. journal_format only
    // applies here -- the resume path above inherits whatever encoding the
    // existing file uses.
    if (!hook->journal_.Create(options.journal_path, options.journal_meta, &error,
                               options.journal_format)) {
      throw std::runtime_error(error);
    }
    return hook;
  }

  size_t replay_count() const { return journal_.records().size(); }

  // The journaled result for the job at this global index, nullptr once the
  // stream has moved past the replay prefix.
  const JournalRecord* Replay(size_t index) const {
    return index < journal_.records().size() ? &journal_.records()[index] : nullptr;
  }

  // Resume only makes sense against the same deterministic job stream; a
  // label mismatch means the source diverged from the recording run.
  void CheckAligned(size_t index, const CampaignJob& job) const {
    const JournalRecord* record = Replay(index);
    if (record != nullptr && record->label != job.label) {
      throw std::runtime_error("journal replay diverged at record " + std::to_string(index) +
                               ": journal has '" + record->label + "', source produced '" +
                               job.label + "'");
    }
  }

  // Called at the serialized merge point, in job order, for jobs past the
  // replay prefix. `merge_index` is the engine's global merge position; a job
  // that carries its own stream_index (a dealt shard of a larger stream)
  // keeps it, so the journal records positions in the unsharded stream.
  // `epoch` (kNoEpoch = none) marks which epoch of an epoch-synchronized
  // campaign produced the record.
  void Append(const CampaignJob& job, bool gated, const JobResult& result,
              const RunFeedback& feedback, size_t merge_index, size_t epoch) {
    JournalRecord record;
    record.label = job.label;
    record.seed = job.seed;
    record.gated = gated;
    record.stream_index =
        job.stream_index != CampaignJob::kNoStreamIndex ? job.stream_index : merge_index;
    record.epoch = epoch;
    record.scenario = job.scenario;
    if (!gated) {
      record.result = result;
      record.feedback = feedback;
    }
    if (FailpointFired("engine.record")) {
      throw std::runtime_error("failpoint engine.record fired before record " +
                               std::to_string(replay_count() + appended_));
    }
    if (!journal_.Append(record)) {
      // A swallowed write failure (disk full, I/O error) would break the
      // "loses at most one record" durability contract far beyond one
      // record; fail the campaign loudly instead.
      throw std::runtime_error("journal append failed at record " +
                               std::to_string(replay_count() + appended_) + " ('" + job.label +
                               "'): disk full or I/O error");
    }
    ++appended_;
    if (abort_after_ != 0 && appended_ >= abort_after_) {
      // Kill-and-resume test hook: die the way a crashed campaign process
      // dies -- no destructors, no further flushing.
      std::fprintf(stderr, "journal: simulated kill after %zu appended record(s)\n",
                   appended_);
      std::_Exit(3);
    }
  }

  // Completes the journal once the campaign ends: extent journals seal the
  // open extent and write their footer index here. A failure is as loud as
  // an append failure -- a journal without its tail flushed breaks the
  // durability contract.
  void Finish() {
    std::string error;
    if (!journal_.Finalize(&error)) {
      throw std::runtime_error("journal finalize failed: " + error);
    }
  }

 private:
  JournalHook() = default;

  CampaignJournal journal_;
  size_t appended_ = 0;
  size_t abort_after_ = 0;
};

// The job's own runner when it carries one, the campaign-wide one otherwise.
JobResult RunJob(const CampaignJob& job, const CampaignEngine::ResultRunner& runner) {
  if (job.explore) {
    return job.explore(job);
  }
  if (!runner) {
    throw std::logic_error("CampaignJob '" + job.label +
                           "' has no explore runner and none was passed to Run()");
  }
  return runner(job);
}

// Runs one job, under a wall-clock watchdog when Options::job_timeout_ms is
// set. A job past its budget is a target hung under an injected fault: the
// worker thread is abandoned (it owns copies of everything it touches, so
// detaching is safe; a runner must therefore keep its own state alive, as
// ExecutionLayer's runners co-own their warm pools) and the job reports a
// deterministic "hang" bug -- site
// and fingerprint derive from the label alone, so the resulting journal
// record is identical however long the wait actually took.
JobResult ExecuteJob(const CampaignJob& job, const CampaignEngine::ResultRunner& runner,
                     const CampaignEngine::Options& options) {
  if (options.job_timeout_ms == 0) {
    FailpointFired("engine.job.run");  // hang-action failpoints park here
    return RunJob(job, runner);
  }
  struct Watch {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool abandoned = false;
    JobResult result;
  };
  auto watch = std::make_shared<Watch>();
  std::thread worker([watch, job, runner] {
    FailpointFired("engine.job.run");  // hang-action failpoints park here
    {
      // A hang failpoint released after the watchdog fired (Failpoints::
      // Clear) must NOT run the job: its closure references engine state
      // the campaign may have torn down by then.
      std::lock_guard<std::mutex> lock(watch->mu);
      if (watch->abandoned) {
        return;
      }
    }
    JobResult result = RunJob(job, runner);
    std::lock_guard<std::mutex> lock(watch->mu);
    watch->result = std::move(result);
    watch->done = true;
    watch->cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(watch->mu);
  if (watch->cv.wait_for(lock, std::chrono::milliseconds(options.job_timeout_ms),
                         [&] { return watch->done; })) {
    lock.unlock();
    worker.join();
    return std::move(watch->result);
  }
  watch->abandoned = true;
  lock.unlock();
  worker.detach();  // the hung run is leaked deliberately; kill on process exit
  JobResult hung;
  hung.bugs.push_back({options.system.empty() ? "campaign" : options.system, "hang",
                       "unresponsive under injected fault: " + job.label, job.label});
  hung.fingerprint = "hang!" + job.label;
  return hung;
}

// What one campaign run carries across the batches it folds: the journal,
// the fold state, and the stream position of the next batch's first job.
struct CampaignRun {
  CampaignRun(const CampaignEngine::Options& options, const CampaignEngine::ResultRunner& runner)
      : options(options), runner(runner), journal(JournalHook::Open(options)) {}

  const CampaignEngine::Options& options;
  const CampaignEngine::ResultRunner& runner;
  std::unique_ptr<JournalHook> journal;
  MergeFoldState fold;
  // Advisory: set at the merge point once max_bugs is reached, read by
  // workers to skip gated jobs without running them.
  std::atomic<bool> saturated{false};
  size_t stream_base = 0;
};

using FeedbackSink = std::function<void(const CampaignJob&, RunFeedback)>;

// The one execute-and-fold step, for a drained open-loop stream and for each
// batch of a feedback-driven one: runs `jobs` on the pool and folds results
// eagerly as the completion cursor advances. At the merge point, under the
// merge lock and in job order, each job is gated or folded, journaled with
// `epoch`, and its feedback handed to `sink`. That ordered fold -- not the
// execution order -- decides dedup winners, the max_bugs cutoff, and what
// each job newly covered, which is what makes N workers bit-identical to one.
void RunOrdered(const std::vector<CampaignJob>& jobs, size_t epoch, CampaignRun& run,
                const FeedbackSink& sink) {
  const CampaignEngine::Options& options = run.options;
  const size_t base = run.stream_base;
  std::vector<std::optional<JobResult>> pending(jobs.size());
  size_t cursor = 0;
  std::mutex merge_mu;

  if (run.journal != nullptr) {
    for (size_t i = 0; i < jobs.size(); ++i) {
      run.journal->CheckAligned(base + i, jobs[i]);
    }
  }

  auto deliver = [&](size_t index, JobResult result) {
    std::lock_guard<std::mutex> lock(merge_mu);
    pending[index] = std::move(result);
    while (cursor < jobs.size() && pending[cursor].has_value()) {
      const CampaignJob& job = jobs[cursor];
      const size_t stream_index = base + cursor;
      bool gated = job.skip_when_saturated && options.max_bugs != 0 &&
                   run.fold.bugs.size() >= options.max_bugs;
      RunFeedback feedback = run.fold.Fold(*pending[cursor], gated, stream_index);
      if (options.max_bugs != 0 && run.fold.bugs.size() >= options.max_bugs) {
        run.saturated.store(true, std::memory_order_release);
      }
      if (run.journal != nullptr && stream_index >= run.journal->replay_count()) {
        run.journal->Append(job, gated, *pending[cursor], feedback, stream_index, epoch);
      }
      sink(job, std::move(feedback));
      pending[cursor].reset();  // the cursor never revisits a merged slot
      ++cursor;
    }
  };

  WorkerPool::ParallelFor(options.workers, jobs.size(), [&](size_t index, int worker) {
    (void)worker;
    const CampaignJob& job = jobs[index];
    // Journal replay: jobs inside the replay prefix take their recorded
    // result from disk instead of executing.
    if (run.journal != nullptr) {
      if (const JournalRecord* record = run.journal->Replay(base + index)) {
        deliver(index, record->result);
        return;
      }
    }
    // Advisory fast-path: once saturated, gated jobs skip execution. The
    // merge-side gate above is the authoritative (deterministic) one; this
    // only avoids wasted work, since late results are discarded anyway.
    if (job.skip_when_saturated && run.saturated.load(std::memory_order_acquire)) {
      deliver(index, {});
      return;
    }
    deliver(index, ExecuteJob(job, run.runner, options));
  });
  run.stream_base += jobs.size();
}

}  // namespace

void FoundBug::AppendXml(XmlNode* parent) const {
  XmlNode* node = parent->AddChild("bug");
  node->SetAttr("system", system);
  node->SetAttr("kind", kind);
  node->SetAttr("where", where);
  node->SetAttr("injected", injected);
}

std::string FoundBug::ToXml() const { return ToXmlElement(*this); }

std::optional<FoundBug> FoundBug::FromNode(const XmlNode& node, std::string* error) {
  if (node.name() != "bug") {
    if (error != nullptr) {
      *error = "bug element must be <bug>";
    }
    return std::nullopt;
  }
  FoundBug bug;
  bug.system = node.AttrOr("system", "");
  bug.kind = node.AttrOr("kind", "");
  bug.where = node.AttrOr("where", "");
  bug.injected = node.AttrOr("injected", "");
  return bug;
}

std::optional<FoundBug> FoundBug::Parse(const std::string& xml, std::string* error) {
  return ParseXmlElement<FoundBug>(xml, error);
}

ExplorationResult CampaignEngine::Run(ScenarioSource& source, const ResultRunner& runner) const {
  const size_t batch_size =
      options_.batch_size == 0 ? Options::kDefaultBatchSize : options_.batch_size;
  CampaignRun run(options_, runner);
  auto feed = [&source](const CampaignJob& job, RunFeedback feedback) {
    source.OnFeedback(job, feedback);
  };

  if (!source.needs_feedback()) {
    // Open-loop source: nothing it schedules depends on what ran, so drain
    // it up front and run everything through one eager fold -- no batch
    // barriers, and saturation skips take effect mid-flight.
    std::vector<CampaignJob> jobs;
    while (true) {
      std::vector<CampaignJob> batch = source.NextBatch(batch_size);
      if (batch.empty()) {
        break;
      }
      for (CampaignJob& job : batch) {
        jobs.push_back(std::move(job));
      }
    }
    RunOrdered(jobs, options_.epoch, run, feed);
  } else {
    // Epoch mode (Options::epoch_len > 0): the source schedules open-loop
    // within an epoch -- feedback parks in `deferred` -- and receives the
    // whole epoch's feedback, in job order, only once epoch_len batches
    // folded or the source ran dry. Delivery can refill the source's queues
    // (mutations of fruitful runs), so a dry NextBatch only ends the campaign
    // after the pending epoch flushed and the source stayed dry.
    const size_t epoch_len = options_.epoch_len;
    size_t epoch = epoch_len == 0 ? options_.epoch : 0;
    size_t batches_this_epoch = 0;
    std::vector<std::pair<CampaignJob, RunFeedback>> deferred;
    auto defer = [&deferred](const CampaignJob& job, RunFeedback feedback) {
      deferred.emplace_back(job, std::move(feedback));
    };
    auto flush_epoch = [&] {
      for (auto& [job, feedback] : deferred) {
        source.OnFeedback(job, feedback);
      }
      deferred.clear();
      ++epoch;
      batches_this_epoch = 0;
    };
    while (true) {
      std::vector<CampaignJob> batch = source.NextBatch(batch_size);
      if (batch.empty()) {
        if (epoch_len != 0 && !deferred.empty()) {
          flush_epoch();
          continue;
        }
        break;
      }
      if (epoch_len == 0) {
        RunOrdered(batch, epoch, run, feed);
      } else {
        RunOrdered(batch, epoch, run, defer);
        if (++batches_this_epoch >= epoch_len) {
          flush_epoch();
        }
      }
    }
  }

  if (run.journal != nullptr) {
    run.journal->Finish();
  }
  return run.fold.TakeResult();
}

std::vector<CampaignJob> AnalyzerJobs(const Image& binary, const FaultProfile& profile,
                                      uint64_t seed_base) {
  std::vector<CampaignJob> jobs;
  const std::vector<CallSiteReport>& reports =
      AnalysisCache::Instance().Reports(binary, profile);
  for (const CallSiteReport& report : reports) {
    if (report.check_class == CheckClass::kFull) {
      continue;
    }
    Scenario scenario = GenerateSiteScenario(report, profile);
    if (scenario.functions().empty()) {
      continue;
    }
    CampaignJob job;
    job.scenario = std::move(scenario);
    job.label = StrFormat("%s@%s+0x%x", report.site.function.c_str(),
                          report.site.enclosing.c_str(), report.site.offset);
    job.seed = seed_base + 0x9e3779b97f4a7c15ull * (report.site.offset + 1);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

Scenario MakeRandomScenario(const std::string& function, int64_t retval, int errno_value,
                            double probability, uint64_t seed) {
  Scenario s;
  TriggerDecl decl;
  decl.id = "rand";
  decl.class_name = "RandomTrigger";
  auto args = std::make_unique<XmlNode>("args");
  args->AddChild("probability")->set_text(StrFormat("%g", probability));
  args->AddChild("seed")->set_text(StrFormat("%llu", (unsigned long long)seed));
  decl.args = std::shared_ptr<XmlNode>(args.release());
  s.AddTrigger(std::move(decl));
  FunctionAssoc assoc;
  assoc.function = function;
  assoc.retval = retval;
  assoc.errno_value = errno_value;
  assoc.triggers.push_back(TriggerRef{"rand", false});
  s.AddFunction(std::move(assoc));
  return s;
}

Scenario MakeCallCountScenario(const std::string& function, uint64_t count, int64_t retval,
                               int errno_value) {
  Scenario s;
  TriggerDecl decl;
  decl.id = "nth";
  decl.class_name = "CallCountTrigger";
  auto args = std::make_unique<XmlNode>("args");
  args->AddChild("count")->set_text(StrFormat("%llu", (unsigned long long)count));
  decl.args = std::shared_ptr<XmlNode>(args.release());
  s.AddTrigger(std::move(decl));
  FunctionAssoc assoc;
  assoc.function = function;
  assoc.retval = retval;
  assoc.errno_value = errno_value;
  assoc.triggers.push_back(TriggerRef{"nth", false});
  s.AddFunction(std::move(assoc));
  return s;
}

}  // namespace lfi
