// Serial vs N-worker campaign throughput.
//
// Runs the full §7.1 campaign (all four systems, every generated scenario)
// on the CampaignEngine at increasing worker counts and reports wall time,
// scenarios/second, and the speedup over the 1-worker serial baseline. The
// analysis cache is warmed first so the measurement isolates scenario
// execution -- the part the worker pool actually shards.
//
//   bench_campaign_parallel [reps] [worker counts...] [--json [path]]
//     (defaults: 3; 1 2 4 8; --json writes BENCH_campaign.json)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "apps/common/campaign_driver.h"
#include "bench_args.h"

namespace {

double RunOnce(int workers, size_t* bugs_out) {
  auto start = std::chrono::steady_clock::now();
  // Exhaustive mode: every worker count executes the identical scenario set
  // (no early exit), so this measures throughput, not luck.
  std::string error;
  auto outcome = lfi::CampaignDriver({.system = "all",
                                      .mode = lfi::CampaignMode::kTable1,
                                      .exhaustive = true,
                                      .workers = workers})
                     .Run(&error);
  auto end = std::chrono::steady_clock::now();
  if (!outcome) {
    std::fprintf(stderr, "campaign failed: %s\n", error.c_str());
    std::exit(1);
  }
  *bugs_out = outcome->bugs.size();
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  lfi_bench::JsonArgs args = lfi_bench::ParseJsonArgs(argc, argv, "BENCH_campaign.json");
  const bool json = args.enabled;
  const std::string& json_path = args.path;
  const std::vector<char*>& positional = args.positional;
  int reps = !positional.empty() ? std::atoi(positional[0]) : 3;
  if (reps < 1) {
    reps = 1;
  }
  std::vector<int> worker_counts;
  for (size_t i = 1; i < positional.size(); ++i) {
    // Resolve "0 = one per hardware thread" (and reject garbage) up front so
    // every table row is labeled with the count actually measured.
    int workers = std::atoi(positional[i]);
    if (workers < 0) {
      std::fprintf(stderr, "ignoring invalid worker count '%s'\n", positional[i]);
      continue;
    }
    worker_counts.push_back(workers == 0 ? static_cast<int>(
                                               std::thread::hardware_concurrency())
                                         : workers);
  }
  if (worker_counts.empty()) {
    worker_counts = {1, 2, 4, 8};
  }
  if (worker_counts.front() != 1) {
    // The speedup column is relative to the 1-worker serial baseline, so
    // always measure it.
    worker_counts.insert(worker_counts.begin(), 1);
  }

  // Warm the analysis cache (profiles + call-site reports) once.
  size_t bugs = 0;
  RunOnce(1, &bugs);
  unsigned hw = std::thread::hardware_concurrency();
  std::printf("full campaign (exhaustive): %zu distinct bugs, best of %d rep(s)\n", bugs, reps);
  std::printf("hardware threads: %u (speedup is capped at this; worker counts beyond it\n", hw);
  std::printf("only measure scheduling overhead)\n\n");
  std::printf("%-8s %-10s %-10s %s\n", "workers", "seconds", "speedup", "bugs");

  struct Row {
    int workers;
    double seconds;
    double speedup;
    size_t bugs;
  };
  std::vector<Row> rows;
  double baseline = 0.0;
  bool consistent = true;
  for (int workers : worker_counts) {
    double best = 0.0;
    size_t got = 0;
    for (int r = 0; r < reps; ++r) {
      double t = RunOnce(workers, &got);
      if (r == 0 || t < best) {
        best = t;
      }
    }
    if (baseline == 0.0) {
      baseline = best;  // the leading 1-worker row, measured exactly once
    }
    if (got != bugs) {
      consistent = false;
    }
    rows.push_back({workers, best, baseline / best, got});
    std::printf("%-8d %-10.3f %-10.2f %zu\n", workers, best, baseline / best, got);
  }
  if (json) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"campaign_parallel\",\n  \"reps\": %d,\n", reps);
    std::fprintf(f, "  \"hardware_threads\": %u,\n  \"results\": [\n", hw);
    for (size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(f,
                   "    {\"workers\": %d, \"seconds\": %.3f, \"speedup\": %.2f, "
                   "\"bugs\": %zu}%s\n",
                   rows[i].workers, rows[i].seconds, rows[i].speedup, rows[i].bugs,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"bug_counts_consistent\": %s\n}\n",
                 consistent ? "true" : "false");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  if (!consistent) {
    std::printf("\nERROR: bug counts diverged across worker counts\n");
    return 1;
  }
  return 0;
}
