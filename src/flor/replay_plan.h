// Partitioned hindsight replay: one entry point, pluggable runners
// (paper §5.4).
//
// Parallel replay is embarrassingly parallel: each worker plans its
// partition, restores, replays and hands back a log fragment, and the
// fragments are concatenated in worker order. The only thing that differs
// between deployments is *where* the N workers run, so this file owns
// everything else:
//   * RunPartitionedReplay — the one entry point. It plans
//     (PlanActiveWorkers), builds each worker's ReplaySession from
//     WorkerReplayOptions (which slices the tier configuration), merges the
//     fragments, runs the merged deferred check, names failed partitions,
//     and measures wall time;
//   * PartitionRunner — the per-deployment piece: turns N worker closures
//     into N results and supplies each worker's clock. SimRunner (below)
//     runs them one after another on simulated clocks (paper-scale latency
//     modeling); exec::ThreadRunner runs them on a work-stealing thread
//     pool and exec::ForkRunner in forked worker processes, both against
//     the wall clock.
// Because planning and merging exist once, merged replay logs are
// byte-identical across runners, worker counts and thread counts.
//
// Checkpoint-store sharding is invisible at this layer by design: each
// worker's ReplaySession reads the shard count from the record manifest
// and routes object reads itself, so partition planning and log merging
// are identical for flat and sharded stores.

#ifndef FLOR_FLOR_REPLAY_PLAN_H_
#define FLOR_FLOR_REPLAY_PLAN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "env/clock.h"
#include "env/filesystem.h"
#include "flor/replay.h"

namespace flor {

/// Main-loop epochs usable as partition boundaries for `program`: every
/// skippable epoch-level loop has a checkpoint there (intersection across
/// loops). `program` must already be instrumented.
std::vector<int64_t> CheckpointBoundaryEpochs(ir::Program* program,
                                              const Manifest& manifest);

/// Plans how many replay sessions a partitioned replay needs, without
/// executing anything: builds a fresh instance, instruments it, reads the
/// record manifest from `fs`, and partitions the main loop. Falls back to
/// `options.num_workers` when the main-loop trip count is not statically
/// known (surplus workers then plan themselves empty at run time).
Result<int> PlanActiveWorkers(const ProgramFactory& factory,
                              const FileSystem* fs,
                              const ClusterPlanOptions& options);

/// Per-worker ReplayOptions derived from the cluster-level options. The
/// deferred check is disabled per worker: RunPartitionedReplay checks the
/// merged stream once.
ReplayOptions WorkerReplayOptions(const ClusterPlanOptions& options,
                                  int worker_id);

/// Main-loop epochs whose checkpoints the replay planned by `options` will
/// restore during worker initialization (weak init: each worker's single
/// pre-segment epoch; strong init: every epoch before each work segment;
/// sampling: the weak-init epoch before every non-contiguous jump), as a
/// sorted, deduplicated list. Retention pins these
/// (GcPolicy::pinned_epochs) so a replay planned before a GC pass still
/// finds every checkpoint it restores — the GC-side half of "no runner
/// ever observes a retired epoch it was planned against". Fails when
/// the main-loop trip count is not statically known (such plans are made
/// at run time and cannot be pinned ahead of a GC).
Result<std::vector<int64_t>> PlannedRestoreEpochs(
    const ProgramFactory& factory, const FileSystem* fs,
    const ClusterPlanOptions& options);

/// Runner-agnostic aggregate of a partitioned replay.
struct MergedClusterReplay {
  /// Max over worker runtimes (no merge barrier in Flor; partitions are
  /// concatenated by worker order).
  double latency_seconds = 0;
  std::vector<double> worker_seconds;
  int workers_used = 0;
  int64_t partition_segments = 0;
  InitMode effective_init = InitMode::kStrong;
  /// Work-segment log entries of all workers, in partition order.
  exec::LogStream merged_logs;
  std::vector<exec::LogEntry> probe_entries;
  DeferredCheckReport deferred;
  SkipBlockStats skipblocks;
  /// Read-tier traffic summed over the workers' stores.
  TierStats tier;
};

/// How a runner executed the partitions. Each runner fills only its own
/// fields; the others stay zero.
struct RunnerStats {
  /// Thread runner: pool threads used, and partitions executed by a thread
  /// they were not dealt to.
  int threads_used = 0;
  int64_t steals = 0;
  /// Fork runner: effective pool size, and the most worker processes alive
  /// at any instant (never above pool_size).
  int pool_size = 0;
  int max_observed_children = 0;
  /// Fork runner: worker processes forked in total, including retries and
  /// speculative twins (== partitions when nothing died).
  int total_forks = 0;
  /// Fork runner: partitions re-forked after a worker death.
  int retried_partitions = 0;
  /// Fork runner: speculative straggler twins forked / partitions the twin
  /// won.
  int speculative_forks = 0;
  int speculative_wins = 0;
  /// Fork runner: forks per partition, indexed by worker id.
  std::vector<int> partition_attempts;
};

/// One partition's replay: replays worker `worker_id` on `clock`.
using PartitionWork = std::function<Result<ReplayResult>(
    int worker_id, std::unique_ptr<Clock> clock)>;

/// A runner's output: one result per partition, indexed by worker id.
struct PartitionOutcomes {
  std::vector<Result<ReplayResult>> results;
  RunnerStats stats;
  /// Appended to the replay's error when any partition failed (the fork
  /// runner names the scratch directory it preserved for inspection).
  std::string failure_note;
};

/// Where the partitions of a replay run. Run calls `work` exactly once per
/// worker id in [0, partitions) — in any order, on any thread or process —
/// and supplies each call's clock. A partition's own failure goes into its
/// result slot; a non-OK return means the runner itself broke and aborts
/// the replay.
class PartitionRunner {
 public:
  virtual ~PartitionRunner() = default;
  virtual Result<PartitionOutcomes> Run(int partitions,
                                        const PartitionWork& work) const = 0;
};

/// Runs the partitions one after another, each on a fresh SimClock. Workers
/// are fully independent, so each accrues paper-scale time on its own
/// clock exactly as if it had a GPU to itself; latency_seconds is then the
/// modeled cluster latency. Cluster billing is a post-pass over
/// worker_seconds (sim::PriceCluster).
class SimRunner : public PartitionRunner {
 public:
  Result<PartitionOutcomes> Run(int partitions,
                                const PartitionWork& work) const override;
};

/// Outcome of RunPartitionedReplay: the merge plus how it ran.
struct PartitionedReplayResult : MergedClusterReplay {
  /// Measured wall-clock time of the whole replay (plan + partitions +
  /// merge), caller's perspective. Under SimRunner latency_seconds is the
  /// modeled figure; this is only the host time the model took.
  double wall_seconds = 0;
  RunnerStats runner;
};

/// Replays the record run at `options.run_prefix` on `fs`, partitioned
/// across `options.num_workers` workers that `runner` executes. `factory`
/// rebuilds the *current* (possibly probed) program once per worker, on
/// the worker's thread or process, so it must be safe to call concurrently
/// (workload factories build fresh, disjoint instances). `fs` must be
/// readable wherever the runner executes workers (every flor FileSystem is
/// thread-safe; see exec/fork_runner.h for processes). When partitions
/// fail, the error names each as "partition <w>/<N>: <cause>" and carries
/// the first failure's code.
Result<PartitionedReplayResult> RunPartitionedReplay(
    const ProgramFactory& factory, FileSystem* fs,
    const ClusterPlanOptions& options, const PartitionRunner& runner);

/// Encodes one worker's ReplayResult for out-of-process transport — the
/// fork runner (exec/fork_runner.h) has each child write this to a
/// CRC-framed result file (serialize/sections.h) and the parent decode it
/// back into the exact ReplayResult an in-process worker would have handed
/// RunPartitionedReplay. The round trip is lossless: doubles travel as
/// hexfloat, log fragments via LogStream's line encoding, and every
/// SkipBlockStats and TierStats counter under its kFields name.
std::string EncodeWorkerResult(const ReplayResult& result);

/// Inverse of EncodeWorkerResult. Truncated or mutated bytes fail with
/// Corruption — a successfully decoded result is safe to merge.
Result<ReplayResult> DecodeWorkerResult(const std::string& data);

}  // namespace flor

#endif  // FLOR_FLOR_REPLAY_PLAN_H_
