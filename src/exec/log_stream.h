// Log streams — the execution data of the paper.
//
// Every flor.log(...) statement appends an entry tagged with the statement
// uid and the loop-iteration context in which it fired. Record persists the
// stream; replay produces a new stream; the deferred correctness check
// (flor/deferred_check.h) compares the two modulo probe statements, skipped
// loops, and init-mode output.

#ifndef FLOR_EXEC_LOG_STREAM_H_
#define FLOR_EXEC_LOG_STREAM_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace flor {
namespace exec {

/// One logged record.
struct LogEntry {
  int32_t stmt_uid = -1;
  /// Loop-iteration context, e.g. "e=17/i=3"; empty at top level.
  std::string context;
  /// True if emitted during parallel-worker initialization (such output is
  /// a by-product of state reconstruction, not part of the worker's log
  /// partition; §5.4.2).
  bool init_mode = false;
  std::string label;
  std::string text;

  bool operator==(const LogEntry& other) const {
    return stmt_uid == other.stmt_uid && context == other.context &&
           init_mode == other.init_mode && label == other.label &&
           text == other.text;
  }
};

/// Append-only in-memory log with (de)serialization.
///
/// Thread-compatible, const-safe: concurrent const access (entries(),
/// WorkEntries(), Serialize()) from multiple threads is safe as long as no
/// thread mutates. The partition runners rely on this — each worker
/// appends only to its own stream, and merging happens on the coordinating
/// thread after workers join (flor/replay_plan.h).
class LogStream {
 public:
  void Append(LogEntry entry) { entries_.push_back(std::move(entry)); }

  /// In-place append: returns a default-constructed entry to fill, saving
  /// the move of three strings through a temporary LogEntry on the record
  /// hot path (the interpreter writes every field anyway).
  LogEntry& AppendEntry() {
    entries_.emplace_back();
    return entries_.back();
  }

  /// Pre-sizes the entry vector (e.g. to a known log-statement count).
  void Reserve(size_t n) { entries_.reserve(n); }

  const std::vector<LogEntry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  void Clear() { entries_.clear(); }

  /// Entries excluding init-mode output (a worker's "partition of the
  /// logs").
  std::vector<LogEntry> WorkEntries() const;

  /// Tab-separated line encoding, one entry per line. Single-allocation:
  /// the exact output size is computed first, then every entry is escaped
  /// directly into the pre-sized buffer (no per-entry temporaries). The
  /// bytes are pinned bit-identical to the historical per-entry
  /// concatenation by exec_test's reference-serializer property test.
  std::string Serialize() const;
  static Result<LogStream> Deserialize(const std::string& data);

  /// Appends all entries of `other` (log merging across workers).
  void Extend(const LogStream& other);

  /// Appends only the work entries of `other` — merging a worker's log
  /// partition while dropping its init-mode reconstruction by-products.
  void ExtendWork(const LogStream& other);

 private:
  std::vector<LogEntry> entries_;
};

}  // namespace exec
}  // namespace flor

#endif  // FLOR_EXEC_LOG_STREAM_H_
