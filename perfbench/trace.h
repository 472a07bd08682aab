// Out-of-band spans for the benchmark's traced runs.
//
// The tracer records spans from outside the program: the benchmark wraps the
// calls it makes into each layer's public API (a ScenarioSource, a warm-pool
// factory and the WarmTarget it builds, CampaignJournal, AnalysisCache,
// MergeRecordsInto) and nothing under src/ changes. Spans live in memory and
// are written out once, at the end, as Chrome trace-event JSON.
//
// Every span carries its name, start, end and parent. A campaign opens a root
// span; spans opened on any thread while that campaign runs share its
// campaign id, and a span with no open span on its own thread parents to the
// campaign root (the engine runs jobs on a worker thread while the calling
// thread waits). Self time is a span's duration minus the union of its
// children's intervals.

#ifndef LFI_PERFBENCH_TRACE_H_
#define LFI_PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/exploration.h"
#include "core/warm_pool.h"

namespace perfbench {

struct Span {
  const char* name = "";
  uint64_t campaign = 0;  // 0 = outside any campaign
  int64_t start_ns = 0;   // since the tracer was created
  int64_t end_ns = -1;    // -1 while open
  int32_t parent = -1;    // index of the parent span, -1 = none
  std::thread::id thread;
};

// Per-name aggregate: how many spans, their summed duration and self time.
struct SpanTotals {
  size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  // A disabled tracer records nothing; every Open() is a no-op.
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Scope {
   public:
    Scope(Tracer* tracer, int32_t id) : tracer_(tracer), id_(id) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tracer_ != nullptr) {
        tracer_->End(id_);
      }
    }

   private:
    Tracer* tracer_;
    int32_t id_;
  };

  // Opens a span that closes when the returned scope is destroyed. `name`
  // must outlive the tracer (a string literal).
  [[nodiscard]] Scope Open(const char* name) {
    return enabled_ ? Scope(this, Begin(name)) : Scope(nullptr, -1);
  }

  // Opens the root span of a new campaign; spans opened until it closes
  // share its campaign id.
  [[nodiscard]] Scope OpenCampaign(const char* name) {
    if (!enabled_) {
      return Scope(nullptr, -1);
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++campaigns_;
    root_ = Push(name, -1, campaigns_);
    return Scope(this, root_);
  }

  // Adds `delta` to a named counter recorded at a layer boundary.
  void Count(const std::string& name, double delta) {
    if (!enabled_) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    counters_[name] += delta;
  }

  double counter(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
  }

  // Totals per span name, self time included.
  std::map<std::string, SpanTotals> Summarize() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans_.size());
    for (const Span& span : spans_) {
      if (span.parent >= 0 && span.end_ns >= 0) {
        children[span.parent].emplace_back(span.start_ns, span.end_ns);
      }
    }
    std::map<std::string, SpanTotals> totals;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      if (span.end_ns < 0) {
        continue;
      }
      int64_t covered = 0;
      std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
      std::sort(kids.begin(), kids.end());
      int64_t cursor = span.start_ns;
      for (auto [start, end] : kids) {
        start = std::max(start, cursor);
        end = std::min(end, span.end_ns);
        if (end > start) {
          covered += end - start;
          cursor = end;
        }
      }
      SpanTotals& t = totals[span.name];
      ++t.count;
      t.total_ms += static_cast<double>(span.end_ns - span.start_ns) / 1e6;
      t.self_ms += static_cast<double>(span.end_ns - span.start_ns - covered) / 1e6;
    }
    return totals;
  }

  // Chrome trace-event JSON ("X" complete events, one track per thread);
  // args carry the campaign id and parent index.
  bool WriteChromeTrace(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::map<std::thread::id, int> tids;
    std::fputs("{\"traceEvents\":[\n", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      if (span.end_ns < 0) {
        continue;
      }
      int tid = tids.emplace(span.thread, static_cast<int>(tids.size())).first->second;
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"id\":%zu,\"campaign\":%llu,\"parent\":%d}}",
                   i == 0 ? "" : ",\n", span.name, tid, span.start_ns / 1e3,
                   (span.end_ns - span.start_ns) / 1e3, i,
                   static_cast<unsigned long long>(span.campaign), span.parent);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  int32_t Begin(const char* name) {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<int32_t>& stack = stacks_[std::this_thread::get_id()];
    return Push(name, stack.empty() ? root_ : stack.back(), root_ >= 0 ? campaigns_ : 0);
  }

  // Requires mu_.
  int32_t Push(const char* name, int32_t parent, uint64_t campaign) {
    Span span;
    span.name = name;
    span.campaign = campaign;
    span.parent = parent;
    span.thread = std::this_thread::get_id();
    span.start_ns = Now();
    spans_.push_back(span);
    int32_t id = static_cast<int32_t>(spans_.size() - 1);
    stacks_[span.thread].push_back(id);
    return id;
  }

  void End(int32_t id) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].end_ns = Now();
    std::vector<int32_t>& stack = stacks_[spans_[id].thread];
    if (!stack.empty() && stack.back() == id) {
      stack.pop_back();
    }
    if (id == root_) {
      root_ = -1;
    }
  }

  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::thread::id, std::vector<int32_t>> stacks_;
  std::map<std::string, double> counters_;
  uint64_t campaigns_ = 0;
  int32_t root_ = -1;
};

// A ScenarioSource that records a span around every call into the wrapped
// source and counts the jobs it hands out.
class TracedSource : public lfi::ScenarioSource {
 public:
  TracedSource(lfi::ScenarioSource& inner, Tracer& tracer) : inner_(inner), tracer_(tracer) {}

  std::vector<lfi::CampaignJob> NextBatch(size_t max_jobs) override {
    Tracer::Scope span = tracer_.Open("source.next_batch");
    std::vector<lfi::CampaignJob> jobs = inner_.NextBatch(max_jobs);
    tracer_.Count("source.jobs", static_cast<double>(jobs.size()));
    return jobs;
  }

  void OnFeedback(const lfi::CampaignJob& job, const lfi::RunFeedback& feedback) override {
    Tracer::Scope span = tracer_.Open("source.on_feedback");
    inner_.OnFeedback(job, feedback);
  }

  bool needs_feedback() const override { return inner_.needs_feedback(); }

 private:
  lfi::ScenarioSource& inner_;
  Tracer& tracer_;
};

// A WarmTarget that records spans around the wrapped instance's Run and
// Reset, and counts the jobs it runs.
class TracedTarget : public lfi::WarmTarget {
 public:
  TracedTarget(std::unique_ptr<lfi::WarmTarget> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  lfi::JobResult Run(const lfi::CampaignJob& job) override {
    Tracer::Scope span = tracer_.Open("target.run");
    lfi::JobResult result = inner_->Run(job);
    tracer_.Count("target.jobs", 1);
    return result;
  }

  bool Reset() override {
    Tracer::Scope span = tracer_.Open("warm.reset");
    return inner_->Reset();
  }

 private:
  std::unique_ptr<lfi::WarmTarget> inner_;
  Tracer& tracer_;
};

// Wraps a warm-pool factory: each build is a span, each built instance a
// TracedTarget.
inline lfi::WarmPool::Factory TracedFactory(lfi::WarmPool::Factory inner, Tracer& tracer) {
  return [inner = std::move(inner), &tracer]() -> std::unique_ptr<lfi::WarmTarget> {
    Tracer::Scope span = tracer.Open("warm.build");
    tracer.Count("warm.builds", 1);
    return std::make_unique<TracedTarget>(inner(), tracer);
  };
}

}  // namespace perfbench

#endif  // LFI_PERFBENCH_TRACE_H_
