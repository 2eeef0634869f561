// The eight evaluation workloads (paper Table 3), each with:
//   * paper-scale simulated parameters — epoch compute time, unskippable
//     per-epoch work, preamble time, and checkpoint sizes — calibrated so
//     the simulated vanilla runtimes and Table 4 storage land near the
//     paper's reported scales (see EXPERIMENTS.md for the calibration
//     notes and known deviations);
//   * tiny *real* model/dataset parameters that the interpreter actually
//     trains, so record/replay correctness is exercised on genuine state.

#ifndef FLOR_WORKLOADS_PROFILES_H_
#define FLOR_WORKLOADS_PROFILES_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"

namespace flor {
namespace workloads {

/// One Table 3 row plus calibration and tiny-model parameters.
struct WorkloadProfile {
  // Table 3 columns.
  std::string name;       ///< "RTE", "CoLA", ...
  std::string benchmark;  ///< "GLUE", "Classic CV", "MLPerf"
  std::string task;
  std::string model;
  std::string dataset;
  bool fine_tune = false;
  int64_t epochs = 0;

  // Paper-scale simulated timing/size parameters.
  double sim_epoch_seconds = 0;     ///< nested training-loop compute/epoch
  double sim_outer_seconds = 0;     ///< unskippable main-body work/epoch
  double sim_preamble_seconds = 0;  ///< imports + data loading
  uint64_t sim_ckpt_raw_bytes = 0;  ///< raw changeset bytes per checkpoint
  double sim_compress_ratio = 0.62; ///< stored/raw (gzip stand-in)

  /// Real wall-clock cost per training batch (seconds): blocking device
  /// time charged as a bounded wait when replaying on a wall clock (the
  /// thread- and fork-runner benches). 0 = pure host compute.
  double wall_batch_seconds = 0;

  /// Checkpoint-store shard count for record runs of this workload
  /// (recorded in the manifest; replay follows it). 1 = legacy flat
  /// layout, which keeps Table 4 bytes/cost exactly comparable to the
  /// paper platform; benches sweep higher counts explicitly.
  int ckpt_shards = 1;

  // Tiny real-execution parameters.
  data::Task task_kind = data::Task::kVision;
  int64_t real_samples = 128;
  int64_t real_batch = 16;
  int64_t real_feature_dim = 32;
  int64_t real_classes = 4;
  int64_t real_hidden = 32;
  int64_t real_vocab = 64;
  bool use_conv = false;           ///< conv stack instead of MLP (ImgN)
  uint64_t seed = 42;

  int64_t real_batches_per_epoch() const { return real_samples / real_batch; }

  /// Simulated vanilla training runtime (the Fig. 11 baseline bar).
  double VanillaSeconds() const {
    return sim_preamble_seconds +
           static_cast<double>(epochs) *
               (sim_epoch_seconds + sim_outer_seconds);
  }

  /// Nominal stored (compressed) bytes per checkpoint — Table 4 unit.
  uint64_t NominalStoredBytes() const {
    return static_cast<uint64_t>(
        static_cast<double>(sim_ckpt_raw_bytes) * sim_compress_ratio);
  }
};

/// All eight workloads, in Table 3 order.
const std::vector<WorkloadProfile>& AllWorkloads();

/// Lookup by name ("RTE").
Result<WorkloadProfile> WorkloadByName(const std::string& name);

}  // namespace workloads
}  // namespace flor

#endif  // FLOR_WORKLOADS_PROFILES_H_
