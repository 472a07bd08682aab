// Fault-tolerant shard child supervision.
//
// CampaignDriver's one orchestrator hands each epoch's per-shard child specs
// to this supervisor (an open-loop campaign has a single epoch). The
// supervisor owns the child lifecycle:
//
//   spawn -> running -> reaped clean                      (done)
//                    -> nonzero exit / killed by signal   -> backoff -> respawn
//                    -> deadline exceeded -> SIGKILL      -> backoff -> respawn
//   spawn fails      -> kill + reap started children, run every child
//                       sequentially in-process (degraded, never fatal)
//
// Respawns are capped exponential backoff up to Options::max_retries; a
// respawned child re-checks its journal on disk and resumes it, so the
// crashed attempt's sealed prefix is salvaged and only unfinished work
// re-executes -- every record is seeded and dealt deterministically, which is
// why the final merged journal stays byte-identical to an unfailed run under
// any failure schedule. Failpoint schedules (CampaignSpec::failpoints) are
// stripped from respawned children: a retry models a fresh replacement host,
// not a machine that crashes the same way forever.
//
// Children run as processes two ways: `<tool_path> run-spec <spec.xml>`
// (exec; the spec file is the wire format) when the tool path is known, or
// fork-without-exec running `runner(spec)` in the child when it is not --
// which gives library embeddings and the test suite real killable,
// hangable, supervisable processes. Non-POSIX builds fall back to one
// thread per child, unsupervised (no deadlines, no retries).

#ifndef LFI_APPS_COMMON_SHARD_SUPERVISOR_H_
#define LFI_APPS_COMMON_SHARD_SUPERVISOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "apps/common/campaign_spec.h"

namespace lfi {

// How a supervised child attempt ended.
enum class ChildExit {
  kClean,        // exit(0)
  kNonZero,      // exited with a nonzero status
  kSignaled,     // killed by a signal (a crash)
  kTimedOut,     // exceeded its deadline; the supervisor SIGKILLed it
  kSpawnFailed,  // fork itself failed
};

const char* ChildExitName(ChildExit exit);

class ShardSupervisor {
 public:
  struct Options {
    // Path of the lfi_tool binary to exec (`run-spec`); "" forks without
    // exec and runs the ChildRunner in the child process.
    std::string tool_path;
    // Wall-clock deadline per child attempt; 0 = none. An attempt past its
    // deadline is SIGKILLed and classified kTimedOut.
    uint64_t child_timeout_ms = 0;
    // Respawns per child after a failed attempt (0 = fail on the first).
    size_t max_retries = 2;
    // First respawn delay; doubles per respawn, capped at 10s.
    uint64_t backoff_ms = 50;
    // Heartbeat cap on the supervision sweep's event wait. The supervisor
    // sleeps until the nearest deadline/respawn timer or a SIGCHLD (child
    // exits wake it immediately where sigtimedwait exists), so this is a
    // safety backstop, not a polling rate -- it only bounds how stale a
    // sweep can get if an edge is missed.
    uint64_t poll_interval_ms = 100;
  };

  // Per-child accounting, for reporting and tests.
  struct Report {
    size_t shard = 0;
    size_t attempts = 0;  // spawns, including the first
    ChildExit last_exit = ChildExit::kClean;
    int status = 0;  // exit code (kNonZero) or signal number (kSignaled/kTimedOut)
    bool ran_in_process = false;  // spawn-failure fallback executed this child
  };

  // Runs one child campaign in the calling process: the body of a
  // fork-without-exec child, and the spawn-failure fallback. Must be
  // self-contained given the spec (CampaignDriver::Run is the one used).
  using ChildRunner = std::function<bool(const CampaignSpec&, std::string*)>;

  ShardSupervisor(Options options, ChildRunner runner)
      : options_(std::move(options)), runner_(std::move(runner)) {}

  // Supervises one child per spec to completion. False + *error when a child
  // exhausted its retries (other children still run to completion first, so
  // their sealed journals survive for resume) or the in-process fallback
  // failed. `reports`, when given, receives one entry per child.
  bool Run(const std::vector<CampaignSpec>& children, std::string* error,
           std::vector<Report>* reports = nullptr);

 private:
  bool RunFallback(const std::vector<CampaignSpec>& children, std::string* error,
                   std::vector<Report>* reports);

  Options options_;
  ChildRunner runner_;
};

}  // namespace lfi

#endif  // LFI_APPS_COMMON_SHARD_SUPERVISOR_H_
