#include "exec/thread_runner.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <thread>

namespace flor {
namespace exec {

namespace {

/// One per-thread task deque: owner pops the front, thieves pop the back.
struct TaskDeque {
  std::mutex mu;
  std::deque<size_t> tasks;

  bool PopFront(size_t* out) {
    std::lock_guard<std::mutex> lock(mu);
    if (tasks.empty()) return false;
    *out = tasks.front();
    tasks.pop_front();
    return true;
  }
  bool PopBack(size_t* out) {
    std::lock_guard<std::mutex> lock(mu);
    if (tasks.empty()) return false;
    *out = tasks.back();
    tasks.pop_back();
    return true;
  }
};

}  // namespace

WorkStealingPool::Stats WorkStealingPool::Run(
    int num_threads, const std::vector<std::function<void()>>& tasks) {
  Stats stats;
  if (num_threads <= 1 || tasks.size() <= 1) {
    for (const auto& task : tasks) task();
    stats.tasks_run = static_cast<int64_t>(tasks.size());
    return stats;
  }

  const int threads = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(num_threads), tasks.size()));
  std::vector<TaskDeque> deques(static_cast<size_t>(threads));
  // Deal task indices round-robin so a 1-thread pool and the sequential
  // path visit partitions in the same order.
  for (size_t i = 0; i < tasks.size(); ++i)
    deques[i % static_cast<size_t>(threads)].tasks.push_back(i);

  std::atomic<int64_t> steals(0);

  auto worker = [&](int self) {
    for (;;) {
      size_t task_index = 0;
      bool found = deques[static_cast<size_t>(self)].PopFront(&task_index);
      if (!found) {
        for (int v = 1; v < threads && !found; ++v) {
          const int victim = (self + v) % threads;
          found = deques[static_cast<size_t>(victim)].PopBack(&task_index);
        }
        if (found) steals.fetch_add(1, std::memory_order_relaxed);
      }
      // Tasks never spawn tasks, so once every deque is empty the only
      // unfinished work is already running on other threads: retire.
      if (!found) return;
      tasks[task_index]();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (auto& t : pool) t.join();

  stats.tasks_run = static_cast<int64_t>(tasks.size());
  stats.steals = steals.load();
  return stats;
}

Result<PartitionOutcomes> ThreadRunner::Run(
    int partitions, const PartitionWork& work) const {
  const int threads = num_threads_ > 0 ? num_threads_ : partitions;
  PartitionOutcomes out;
  out.results.assign(static_cast<size_t>(partitions),
                     Status::Internal("worker never ran"));
  std::vector<std::function<void()>> tasks;
  tasks.reserve(static_cast<size_t>(partitions));
  for (int w = 0; w < partitions; ++w) {
    tasks.push_back([&work, &out, w] {
      out.results[static_cast<size_t>(w)] =
          work(w, std::make_unique<WallClock>());
    });
  }
  out.stats.steals = WorkStealingPool::Run(threads, tasks).steals;
  out.stats.threads_used = std::min(threads, partitions);
  return out;
}

}  // namespace exec
}  // namespace flor
