// Thread-pool partition runner (paper §5.4, Fig. 10/13 — the measured
// counterpart of SimRunner).
//
// Runs the partitions of a RunPartitionedReplay (flor/replay_plan.h) on N
// worker threads, work-stealing over the partitions, against a shared
// thread-safe FileSystem and the wall clock. Worker sessions never
// synchronize with each other (hindsight replay is embarrassingly
// parallel): each builds its own program instance, owns its own clock and
// log stream, and only shares the read-only record artifacts through the
// FileSystem.

#ifndef FLOR_EXEC_THREAD_RUNNER_H_
#define FLOR_EXEC_THREAD_RUNNER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "flor/replay_plan.h"

namespace flor {
namespace exec {

/// Minimal work-stealing task pool. Task indices are dealt round-robin to
/// per-thread deques; a thread pops its own deque from the front and, when
/// empty, steals from the back of a victim's deque. Blocks until all tasks
/// complete. Tasks must not block on each other.
class WorkStealingPool {
 public:
  struct Stats {
    int64_t tasks_run = 0;
    /// Tasks executed by a thread other than the one they were dealt to.
    int64_t steals = 0;
  };

  /// Runs all `tasks` on `num_threads` threads (inline when either count
  /// is <= 1).
  static Stats Run(int num_threads,
                   const std::vector<std::function<void()>>& tasks);
};

/// Runs partitions on a WorkStealingPool, each on a WallClock. Fills
/// RunnerStats::threads_used and steals.
class ThreadRunner : public PartitionRunner {
 public:
  /// `num_threads` <= 0 means one thread per partition. Fewer threads than
  /// partitions is fine: threads steal the surplus.
  explicit ThreadRunner(int num_threads = 0) : num_threads_(num_threads) {}

  Result<PartitionOutcomes> Run(int partitions,
                                const PartitionWork& work) const override;

 private:
  int num_threads_;
};

}  // namespace exec
}  // namespace flor

#endif  // FLOR_EXEC_THREAD_RUNNER_H_
