// Shared plumbing of the three benchmark workloads: run configuration,
// the per-phase result every workload fills, the filesystem stack, and the
// outcome tally behind `attempted` / `failed`.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "env/env.h"
#include "timing_fs.h"
#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory of this run, relative to the working directory.
  std::string work_dir;
};

/// One reported figure. `samples` is the number of measurements behind a
/// median or percentile (0 for a single reading).
struct Figure {
  double value = 0;
  std::string unit;
  size_t samples = 0;
};

/// Thread-safe count of checked operations and failures. A failure is an
/// operation that returned an error, was refused, or gave a wrong answer.
class Tally {
 public:
  /// Counts `st` as one operation.
  bool Check(const flor::Status& st, const std::string& what);
  /// Counts one check of `cond`.
  bool Expect(bool cond, const std::string& what);

  int64_t attempted() const;
  int64_t failed() const;
  /// The first few failure messages.
  std::vector<std::string> errors() const;

 private:
  void Add(bool ok, const std::string& what);
  mutable std::mutex mu_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> errors_;
};

/// What one timed phase of a workload produced.
struct PhaseResult {
  /// End-to-end figures, by name (the gated set plus the workload's own
  /// named figures, which are reported but not gated).
  std::map<std::string, Figure> figures;
  /// Per-layer values (filled on traced phases only).
  std::map<std::string, double> layers;
  /// Per-layer figures that were re-timed outside the run rather than
  /// measured in situ.
  std::vector<std::string> retimed;
};

/// The filesystem a workload stores through: a PosixFileSystem rooted in
/// the run's scratch directory, wrapped in a TimingFileSystem when the run
/// is traced.
struct FsStack {
  FsStack(const std::string& root, SpanRecorder* rec);
  flor::FileSystem* fs() {
    return timing ? static_cast<flor::FileSystem*>(timing.get()) : base.get();
  }
  std::string root;
  std::unique_ptr<flor::PosixFileSystem> base;
  std::unique_ptr<TimingFileSystem> timing;  ///< null when untraced
};

/// A workload: Setup() is timed as setup_s; RunPhase() is the timed loop.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual flor::Status Setup() = 0;
  /// Runs the workload for `seconds` (the last operation may overrun),
  /// checking every output into `tally`. On a traced phase the recorder is
  /// on and the workload also fills `out->layers`.
  virtual void RunPhase(double seconds, bool traced, Tally* tally,
                        PhaseResult* out) = 0;
  /// Stops servers and connections gracefully; counted into `tally`.
  virtual void Shutdown(Tally* tally) = 0;
};

std::unique_ptr<Workload> MakeRecordDense(const RunConfig& cfg,
                                          SpanRecorder* rec);
std::unique_ptr<Workload> MakeReplayFinetune(const RunConfig& cfg,
                                             SpanRecorder* rec);
std::unique_ptr<Workload> MakeTenantMix(const RunConfig& cfg,
                                        SpanRecorder* rec);

// --- helpers shared by the workloads ------------------------------------

/// Median of `samples` as a Figure (value 0, samples 0 when empty).
Figure MedianFigure(const std::vector<double>& samples,
                    const std::string& unit, double scale = 1);
/// Tail percentile `p` into `*out`; false, leaving `*out` alone, when the
/// ten-samples-beyond rule refuses it.
bool TailFigure(const std::vector<double>& samples, double p,
                const std::string& unit, double scale, Figure* out);

/// Sum of the sizes of the files under `prefix`, read through `fs`.
uint64_t BytesUnder(const flor::FileSystem* fs, const std::string& prefix);

/// Decodes every checkpoint object under `prefix`; one tally entry each.
/// Returns the number checked.
int64_t CheckCheckpointsDecode(const flor::FileSystem* fs,
                               const std::string& prefix, Tally* tally);

/// Re-times the public codec and checkpoint functions on up to `limit`
/// stored checkpoints under `prefix` and adds serialize.* and
/// checkpoint.encode_s / decode_s (seconds per checkpoint, medians) to
/// `out`.
void RetimeCodec(const flor::FileSystem* fs, const std::string& prefix,
                 size_t limit, PhaseResult* out);

/// Adds env.* per-layer values from the recorder's spans and the timing
/// filesystem's counters, normalized per completed operation.
void AddEnvLayers(const std::map<std::string, SpanTotals>& self,
                  const FsCounters& c, double ops, double state_bytes,
                  PhaseResult* out);

/// VmHWM / VmPeak / Threads from /proc/self/status (0 when unavailable).
struct ProcStatus {
  double vm_hwm_mb = 0;
  double vm_peak_mb = 0;
  int threads = 0;
};
ProcStatus ReadProcStatus();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
