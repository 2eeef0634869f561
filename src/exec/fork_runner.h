// Fork-pool partition runner (the paper's flashback deployment: one replay
// process per GPU/partition).
//
// Runs the partitions of a RunPartitionedReplay (flor/replay_plan.h) in
// forked worker *processes* against the wall clock: true isolation, so a
// worker that segfaults, leaks, or is OOM-killed takes down only its
// partition, exactly like a lost GPU node in the paper's cluster runs.
//
// The runner is a small cluster scheduler, not a fork-all barrier: a
// bounded pool of at most `max_concurrent_children` worker processes runs
// at once, queued partitions are forked as slots free up (so G partitions
// replay on fewer slots, just slower — the elastic scale-out shape), and a
// partition whose worker *dies* (killed by a signal, or unable to commit
// its result file) is automatically re-forked up to `max_attempts` times.
// Every attempt writes to its own attempt-suffixed result/error file name,
// so a torn attempt-1 file can never shadow a clean attempt-2 fragment.
// Optionally, once every other partition has finished, the last running
// straggler is speculatively re-forked and raced against itself: the first
// attempt to commit wins, the loser is killed, reaped, and its file
// ignored.
//
// Protocol: each child runs its partition's closure and writes the
// resulting fragment (flor::EncodeWorkerResult) to a length-prefixed,
// CRC-framed result file (serialize/sections.h) in a posix scratch directory
// — atomically, so a child killed mid-write leaves either nothing or a
// torn file that fails to parse, never a silently mergeable garbage
// fragment. The parent reaps children as they exit (EINTR-safe
// waitpid(-1)), maps death (nonzero exit or signal) into retry-or-fail per
// partition without touching surviving fragments, and decodes committed
// fragments (flor::DecodeWorkerResult) back into the exact ReplayResult an
// in-process worker would have produced. Merging is order-insensitive, so
// the merged replay log is byte-identical to the other runners no matter
// how out-of-order partitions complete or how often they retry.
//
// The shared FileSystem must be readable in the children: PosixFileSystem
// shares the on-disk record run across processes; MemFileSystem works too
// because fork() snapshots it copy-on-write (the record artifacts are
// read-only during replay). Results always travel through the scratch
// directory, never through memory.

#ifndef FLOR_EXEC_FORK_RUNNER_H_
#define FLOR_EXEC_FORK_RUNNER_H_

#include <functional>
#include <string>
#include <utility>

#include "flor/replay_plan.h"

namespace flor {
namespace exec {

/// Fork-pool scheduling knobs.
struct ForkRunnerOptions {
  /// Directory for worker result files. Empty: a fresh mkdtemp scratch
  /// directory, removed after the run (preserved, and named in the error,
  /// when a partition fails). Non-empty: used as-is (created if missing,
  /// stale worker files cleared, left in place afterwards) so tests and
  /// post-mortems can inspect surviving fragments.
  std::string scratch_dir;

  /// Scheduler pool size: at most this many worker processes are alive at
  /// once; partitions beyond it queue and fork as slots free up. <= 0
  /// (the default) means min(partitions, hardware_concurrency). Benches
  /// replaying device-bound partitions (one slot per modeled GPU) should
  /// pin this to the partition count explicitly.
  int max_concurrent_children = 0;
  /// Fork budget per partition. A worker that dies by signal or cannot
  /// commit its result file is re-forked until its partition commits or
  /// the budget is exhausted; 1 restores the original fail-fast behavior.
  /// A replay that fails *cleanly* inside the child (a Status carried
  /// back through the framed error file) is deterministic and is never
  /// retried.
  int max_attempts = 2;
  /// Once every other partition has finished, re-fork the last running
  /// straggler (within its remaining pool slot) and race the two
  /// attempts: the first committed result wins, the loser is killed and
  /// its file ignored. Models the paper deployment's straggler
  /// mitigation; off by default because it burns a fork on a healthy
  /// worker.
  bool speculate_stragglers = false;

  /// Test-only fault-injection hooks, invoked inside the forked child
  /// with the worker id and the 1-based attempt number.
  /// `before_session` runs before the child's partition closure,
  /// `before_result_write` after it but before the result file is
  /// committed — a hook that kills the process at either point models a
  /// worker lost mid-partition.
  std::function<void(int worker_id, int attempt)> child_before_session;
  std::function<void(int worker_id, int attempt)> child_before_result_write;
};

/// Runs partitions in forked worker processes over a bounded pool,
/// retrying dead workers up to the attempt budget. Fills RunnerStats'
/// pool, fork, retry, speculation and per-partition attempt fields. Fork
/// happens on the calling thread — do not call with unrelated threads live
/// in the parent (the single-coordinator discipline). Run reaps with
/// waitpid(-1): it must not race another wait loop in the same process
/// (statuses of unrelated children reaped here are discarded).
class ForkRunner : public PartitionRunner {
 public:
  explicit ForkRunner(ForkRunnerOptions options = {})
      : options_(std::move(options)) {}

  Result<PartitionOutcomes> Run(int partitions,
                                const PartitionWork& work) const override;

  /// Scratch-relative result file a worker commits. Attempt 1 keeps the
  /// plain name ("worker-<id>.res"); retries and speculative twins get
  /// attempt-suffixed names ("worker-<id>.attempt-<n>.res") so no torn
  /// earlier attempt can shadow a clean later one.
  static std::string ResultFileName(int worker_id, int attempt = 1);
  /// Scratch-relative error file a worker leaves when its replay fails
  /// cleanly ("worker-<id>.err", attempt-suffixed like ResultFileName).
  static std::string ErrorFileName(int worker_id, int attempt = 1);

 private:
  ForkRunnerOptions options_;
};

}  // namespace exec
}  // namespace flor

#endif  // FLOR_EXEC_FORK_RUNNER_H_
