// Per-system job execution: shared runner cores, warm-target factories, and
// the ExecutionLayer that picks warm pools or cold one-shot runners.
//
// Every workload the campaign driver dispatches exists in exactly one copy --
// a *runner core* operating on an already-constructed target (`RunGitJobOn`,
// `RunPbftJobOn`, ...). The cold runners wrap a core in construct-run-destroy
// (one fresh target per job, the paper's fresh-process-per-test model); the
// warm targets wrap the same core in construct-once + snapshot + restore
// (core/warm_pool.h). Because both paths execute the identical core against a
// target in the identical post-setup state, bugs, coverage, fingerprints, and
// journal bytes cannot diverge between them.
//
// Snapshot points (== the state a cold runner hands to the workload):
//   git, mysql, bind:  after application construction. Everything else --
//       the mysql errmsg write + Startup(), git's test suite, bind's zone
//       loading -- happens inside the faulted workload, so it must re-run
//       per job.
//   pbft:  after cluster construction *and* Start() (socket bring-up), which
//       the cold runners also perform before installing the interposer.

#ifndef LFI_APPS_COMMON_WARM_TARGETS_H_
#define LFI_APPS_COMMON_WARM_TARGETS_H_

#include <memory>
#include <string>

#include "core/campaign_engine.h"
#include "core/warm_pool.h"

namespace lfi {

class MiniGit;
class MiniMysql;
class MiniBind;
class PbftCluster;
class BfsCluster;

// --- runner cores (one per workload kind) ----------------------------------

JobResult RunGitJobOn(MiniGit& git, const CampaignJob& job);
JobResult RunMysqlJobOn(MiniMysql& mysql, const CampaignJob& job);
JobResult RunBindJobOn(MiniBind& bind, const CampaignJob& job);
JobResult RunBindDstJobOn(MiniBind& bind, const CampaignJob& job);
// `requests`/`max_ticks` size the workload (8/2000 for the Table 1 campaign,
// 20/3000 for exploration -- enough to cross the checkpoint interval).
JobResult RunPbftJobOn(PbftCluster& cluster, const CampaignJob& job, int requests,
                       int max_ticks);
JobResult RunPbftDistributedJobOn(PbftCluster& cluster, const CampaignJob& job);
// `max_ticks` bounds the multi-client workload (600 for the Table 1
// campaign, 900 for exploration's longer scripts). Runs the consistency
// oracle's remount audit after every non-crashed injected run.
JobResult RunBfsJobOn(BfsCluster& cluster, const CampaignJob& job, int max_ticks);
// The partial-transfer phase: arms the vnet partial-send/recv fault sites
// (seed-derived probabilities) instead of a library-fault scenario, so the
// connection mux's recovery paths are exercised end to end.
JobResult RunBfsMuxJobOn(BfsCluster& cluster, const CampaignJob& job);

// --- cold one-shot runners (construct, run, destroy) ------------------------
// The replay path and the --cold-start ablation run these; they are also the
// fallback semantics the warm pool must be byte-identical to.

JobResult RunGitJob(const CampaignJob& job);
JobResult RunMysqlJob(const CampaignJob& job);
JobResult RunBindJob(const CampaignJob& job);
JobResult RunBindDstJob(const CampaignJob& job);
JobResult RunPbftJob(const CampaignJob& job);
JobResult RunPbftExploreJob(const CampaignJob& job);
JobResult RunPbftDistributedJob(const CampaignJob& job);
JobResult RunBfsJob(const CampaignJob& job);
JobResult RunBfsExploreJob(const CampaignJob& job);
JobResult RunBfsMuxJob(const CampaignJob& job);

// --- warm-target factories ---------------------------------------------------
// One factory per (system, workload kind): constructs the target, runs its
// injection-disarmed setup, snapshots, and serves jobs through the shared
// core. Handed to WarmPool.

WarmPool::Factory GitWarmFactory();
WarmPool::Factory MysqlWarmFactory();
WarmPool::Factory BindWarmFactory();
WarmPool::Factory BindDstWarmFactory();
WarmPool::Factory PbftWarmFactory(int requests, int max_ticks);
WarmPool::Factory PbftDistributedWarmFactory();
WarmPool::Factory BfsWarmFactory(int rounds, int max_ticks);
WarmPool::Factory BfsMuxWarmFactory();

// --- the execution layer -----------------------------------------------------
// Builds the campaign's warm pools (one set per engine run -- shard and epoch
// children each build their own) and hands out the ResultRunners the engine
// and the Table 1 job builders plug in. Each runner co-owns its pool, so a
// job the engine's watchdog abandoned can finish after the layer is gone.
// With `cold_start` (the ablation knob, spec attribute cold-start) every
// runner is the one-shot cold function instead, so `lfi_tool --cold-start`
// byte-compares against the default.
class ExecutionLayer {
 public:
  ExecutionLayer(const std::string& system, bool explore_workload, bool cold_start);

  // The campaign-wide runner for `system`'s default (or exploration) workload.
  const CampaignEngine::ResultRunner& runner() const { return runner_; }
  // Self-contained-job runners (empty unless `system` defines them): the
  // bind dst_lib_init sweep and the distributed pbft fuzz phase.
  const CampaignEngine::ResultRunner& bind_dst_runner() const { return bind_dst_runner_; }
  const CampaignEngine::ResultRunner& pbft_distributed_runner() const {
    return pbft_distributed_runner_;
  }
  const CampaignEngine::ResultRunner& bfs_mux_runner() const { return bfs_mux_runner_; }

  bool cold_start() const { return cold_start_; }
  // Main-pool counters (zeroes under cold_start): how much bring-up the warm
  // layer actually amortized.
  WarmPool::Stats pool_stats() const;

 private:
  bool cold_start_;
  std::shared_ptr<WarmPool> pool_;  // runner_'s pool, for pool_stats()
  CampaignEngine::ResultRunner runner_;
  CampaignEngine::ResultRunner bind_dst_runner_;
  CampaignEngine::ResultRunner pbft_distributed_runner_;
  CampaignEngine::ResultRunner bfs_mux_runner_;
};

}  // namespace lfi

#endif  // LFI_APPS_COMMON_WARM_TARGETS_H_
