// TimingFileSystem — a pass-through flor::FileSystem that records one span
// per call ("env.write", "env.read", "env.list", ...) into a SpanRecorder
// and counts calls and bytes. It is the benchmark's window on the env
// layer: wrap the real filesystem, hand the wrapper to flor::Env, and every
// store, spool, manifest and GC access goes through it. Calls made on the
// library's background threads have no open benchmark span on that thread,
// so they become root spans.
#ifndef PERFBENCH_TIMING_FS_H_
#define PERFBENCH_TIMING_FS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "env/filesystem.h"
#include "trace.h"

namespace perfbench {

/// Call and byte counters, counted only while the recorder is enabled.
struct FsCounters {
  int64_t write_calls = 0;  ///< WriteFile + AppendFile
  int64_t write_bytes = 0;
  int64_t read_calls = 0;
  int64_t read_bytes = 0;
  int64_t list_calls = 0;
  int64_t delete_calls = 0;
};

class TimingFileSystem : public flor::FileSystem {
 public:
  /// Borrows `base` and `rec`; both must outlive the wrapper.
  TimingFileSystem(flor::FileSystem* base, SpanRecorder* rec)
      : base_(base), rec_(rec) {}

  flor::Status WriteFile(const std::string& path,
                         const std::string& data) override;
  flor::Status AppendFile(const std::string& path,
                          const std::string& data) override;
  flor::Result<std::string> ReadFile(const std::string& path) const override;
  bool Exists(const std::string& path) const override;
  flor::Result<uint64_t> FileSize(const std::string& path) const override;
  flor::Status DeleteFile(const std::string& path) override;
  std::vector<std::string> ListPrefix(
      const std::string& prefix) const override;

  FsCounters counters() const;
  void ResetCounters();

 private:
  bool counting() const { return rec_->enabled(); }

  flor::FileSystem* base_;
  SpanRecorder* rec_;
  mutable std::atomic<int64_t> write_calls_{0};
  mutable std::atomic<int64_t> write_bytes_{0};
  mutable std::atomic<int64_t> read_calls_{0};
  mutable std::atomic<int64_t> read_bytes_{0};
  mutable std::atomic<int64_t> list_calls_{0};
  mutable std::atomic<int64_t> delete_calls_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_FS_H_
