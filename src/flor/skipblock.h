// Shared record/replay run layout and SkipBlock bookkeeping types.
//
// A record run lives under a filesystem prefix:
//   <prefix>/source.py     rendered program source (probe-diff baseline)
//   <prefix>/logs.tsv      record log stream
//   <prefix>/manifest.tsv  checkpoint index + adaptive stats
//   <prefix>/ckpt/...      Loop End Checkpoints

#ifndef FLOR_FLOR_SKIPBLOCK_H_
#define FLOR_FLOR_SKIPBLOCK_H_

#include <functional>
#include <memory>
#include <string>

#include "common/counters.h"
#include "common/status.h"
#include "ir/program.h"

namespace flor {

/// Path helpers for a record run rooted at `prefix`.
struct RunPaths {
  std::string prefix;

  explicit RunPaths(std::string p) : prefix(std::move(p)) {}

  std::string Source() const { return prefix + "/source.py"; }
  std::string Logs() const { return prefix + "/logs.tsv"; }
  std::string Manifest() const { return prefix + "/manifest.tsv"; }
  std::string CkptPrefix() const { return prefix + "/ckpt"; }
};

/// Per-run SkipBlock activity counters (diagnostics surfaced in results).
struct SkipBlockStats {
  int64_t executed = 0;   ///< wrapped loops run to completion
  int64_t skipped = 0;    ///< wrapped loops restored from checkpoints
  int64_t restores = 0;   ///< checkpoint loads (== skipped, kept separate
                          ///< for future multi-checkpoint restores)
  int64_t materialized = 0;

  /// The counters above under their worker-result keys: the one list the
  /// merge rule and the worker-result codec iterate.
  static constexpr CounterField<SkipBlockStats> kFields[] = {
      {"sb_executed", &SkipBlockStats::executed},
      {"sb_skipped", &SkipBlockStats::skipped},
      {"sb_restores", &SkipBlockStats::restores},
      {"sb_materialized", &SkipBlockStats::materialized}};
  SkipBlockStats& operator+=(const SkipBlockStats& other) {
    return AddCounters(*this, other, kFields);
  }
};

/// One freshly built, runnable copy of a training script: the program
/// structure plus an opaque context that owns whatever the semantic
/// callbacks capture (models, optimizers, datasets). The preamble
/// statements allocate into the context at run time, so every replay worker
/// reconstructs its objects "from the beginning", exactly like re-running
/// `python train.py` (§5.4.2).
struct ProgramInstance {
  std::unique_ptr<ir::Program> program;
  std::shared_ptr<void> context;
};

/// Rebuildable training script. Calling the factory twice must produce
/// structurally identical programs (same loop ids and statement renderings)
/// — the determinism version diffing and checkpoint keying rely on.
using ProgramFactory = std::function<Result<ProgramInstance>()>;

}  // namespace flor

#endif  // FLOR_FLOR_SKIPBLOCK_H_
