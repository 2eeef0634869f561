// record_dense — one tenant records a from-scratch SGD MLP run after run
// (closed loop) through flor::Session::Record onto a PosixFileSystem with
// no bucket tier, no GC and no admission limit. Every checkpoint is ~16 MiB
// of dense float state (weights + momentum), which the LZ codec cannot
// shrink. A vanilla run of the same program (checkpointing disabled) is
// interleaved before every record, so record_slowdown is a paired ratio.
//
// Gated figures: op_p50_s = median Session::Record wall (record_s),
// aux_op_p50_s = median vanilla wall, stored_bytes_per_state_byte = local
// checkpoint bytes / raw snapshot bytes.
#include <filesystem>

#include "bench.h"
#include "service/service.h"
#include "workloads/programs.h"

namespace perfbench {
namespace {

// One epoch, so one checkpoint, per run: a record stays short enough that a
// timed phase holds a dozen or more record/vanilla pairs for its medians.
constexpr int64_t kEpochs = 1;

flor::workloads::WorkloadProfile DenseProfile(uint64_t seed) {
  flor::workloads::WorkloadProfile p;
  p.name = "DenseMLP";
  p.benchmark = "perfbench";
  p.task = "classification";
  p.model = "MLP";
  p.dataset = "synthetic";
  p.epochs = kEpochs;
  p.sim_epoch_seconds = 1;  // simulated clocks only; unused here
  p.task_kind = flor::data::Task::kVision;
  // 512 -> 1216 -> 1216 -> 10: 2.1M parameters, so weights + SGD momentum
  // make a ~16 MiB checkpoint per epoch.
  p.real_samples = 64;
  p.real_batch = 16;
  p.real_feature_dim = 512;
  p.real_hidden = 1216;
  p.real_classes = 10;
  p.seed = seed;
  return p;
}

class RecordDense : public Workload {
 public:
  RecordDense(const RunConfig& cfg, SpanRecorder* rec)
      : cfg_(cfg), rec_(rec) {}

  flor::Status Setup() override {
    fs_ = std::make_unique<FsStack>(cfg_.work_dir + "/fs", rec_);
    env_ = std::make_unique<flor::Env>(std::make_unique<flor::WallClock>(),
                                       fs_->fs());
    // Vanilla runs bypass the timing wrapper: env.* describes records.
    vanilla_env_ = std::make_unique<flor::Env>(
        std::make_unique<flor::WallClock>(), fs_->base.get());
    flor::ConnectionOptions copts;
    copts.root = "flor";
    FLOR_ASSIGN_OR_RETURN(conn_, flor::Connection::Open(env_.get(), copts));
    FLOR_ASSIGN_OR_RETURN(session_, conn_->OpenSession("dense"));
    profile_ = DenseProfile(cfg_.seed);
    factory_ = flor::workloads::MakeWorkloadFactory(
        profile_, flor::workloads::kProbeNone);
    record_opts_.workload = profile_.name;
    record_opts_.adaptive.enabled = false;  // checkpoint every epoch
    // Warm-up: one vanilla run touches the code, allocator and data paths
    // before anything is timed.
    return RunVanilla().status();
  }

  void RunPhase(double seconds, bool traced, Tally* tally,
                PhaseResult* out) override {
    if (traced) {
      rec_->Clear();
      fs_->timing->ResetCounters();
    }
    std::vector<double> record_s, vanilla_s, slowdown;
    double raw_bytes = 0, local_bytes = 0, main_s = 0, stall_s = 0,
           bg_s = 0, syncs = 0;
    bool retimed = false;
    const double deadline = Now() + seconds;
    while (Now() < deadline) {
      flor::Result<double> vanilla = RunVanilla();
      if (!tally->Check(vanilla.status(), "vanilla run")) continue;

      const std::string run = "r" + std::to_string(next_run_++);
      const std::string prefix = "flor/dense/" + run;
      flor::Result<flor::SessionRecordResult> res =
          flor::Status::Internal("not run");
      const double t0 = Now();
      {
        RequestScope request(next_run_);
        ScopedSpan span(traced ? rec_ : nullptr, "session.record");
        res = session_->Record(run, factory_, record_opts_);
      }
      const double wall = Now() - t0;
      if (!tally->Check(res.status(), "record " + run)) continue;

      // Untimed checks, read through the undecorated filesystem.
      flor::FileSystem* base = fs_->base.get();
      flor::Result<std::string> manifest_bytes =
          base->ReadFile(prefix + "/manifest.tsv");
      if (tally->Check(manifest_bytes.status(), "manifest of " + run)) {
        flor::Result<flor::Manifest> m =
            flor::Manifest::Deserialize(*manifest_bytes);
        if (tally->Check(m.status(), "parse manifest of " + run)) {
          tally->Expect(static_cast<int64_t>(m->records.size()) == kEpochs,
                        "one checkpoint per epoch in " + run);
        }
      }
      CheckCheckpointsDecode(base, prefix + "/ckpt", tally);

      record_s.push_back(wall);
      vanilla_s.push_back(*vanilla);
      slowdown.push_back(wall / *vanilla);
      for (const flor::CheckpointRecord& r : res->manifest.records) {
        raw_bytes += static_cast<double>(r.raw_bytes);
        bg_s += r.materialize_seconds;
      }
      local_bytes += static_cast<double>(BytesUnder(base, prefix + "/ckpt"));
      main_s += res->materialize_main_seconds;
      stall_s += res->materialize_stall_seconds;
      syncs += static_cast<double>(res->group_commit.syncs);
      if (traced && !retimed) {
        RetimeCodec(base, prefix + "/ckpt", 2, out);
        retimed = true;
      }
      // ~16 MiB per run: delete it (untimed) so the disk never fills.
      std::error_code ec;
      std::filesystem::remove_all(fs_->root + "/" + prefix, ec);
    }

    out->figures["op_p50_s"] = MedianFigure(record_s, "s");
    out->figures["aux_op_p50_s"] = MedianFigure(vanilla_s, "s");
    out->figures["stored_bytes_per_state_byte"] = {
        raw_bytes > 0 ? local_bytes / raw_bytes : 0, "B/B", 0};
    out->figures["record_s"] = MedianFigure(record_s, "s");
    out->figures["record_slowdown"] = MedianFigure(slowdown, "x");
    if (!traced) return;

    const double n = static_cast<double>(record_s.size());
    const double per = n > 0 ? 1.0 / n : 0;
    out->layers["checkpoint.materialize_main_s"] = main_s * per;
    out->layers["checkpoint.stall_s"] = stall_s * per;
    out->layers["checkpoint.bg_materialize_s"] = bg_s * per;
    out->layers["checkpoint.group_commit_syncs"] = syncs * per;
    out->layers["flor.vanilla_s"] = MedianFigure(vanilla_s, "s").value;
    AddEnvLayers(SelfTimes(rec_->Spans()), fs_->timing->counters(), n,
                 raw_bytes, out);
  }

  void Shutdown(Tally* tally) override {
    if (conn_) tally->Check(conn_->Close(), "connection close");
    session_.reset();
    conn_.reset();
  }

 private:
  /// One vanilla run of the program (RecordSession with checkpointing
  /// disabled); returns its wall time. Its files are deleted afterwards.
  flor::Result<double> RunVanilla() {
    const std::string prefix = "vanilla/v" + std::to_string(next_vanilla_++);
    flor::RecordOptions opts;
    opts.run_prefix = prefix;
    opts.workload = profile_.name;
    opts.checkpointing_enabled = false;
    const double t0 = Now();
    {
      FLOR_ASSIGN_OR_RETURN(flor::ProgramInstance inst, factory_());
      flor::exec::Frame frame;
      flor::RecordSession session(vanilla_env_.get(), opts);
      FLOR_RETURN_IF_ERROR(session.Run(inst.program.get(), &frame).status());
    }
    const double wall = Now() - t0;
    std::error_code ec;
    std::filesystem::remove_all(fs_->root + "/" + prefix, ec);
    return wall;
  }

  RunConfig cfg_;
  SpanRecorder* rec_;
  flor::workloads::WorkloadProfile profile_;
  flor::ProgramFactory factory_;
  flor::SessionRecordOptions record_opts_;
  std::unique_ptr<FsStack> fs_;
  std::unique_ptr<flor::Env> env_;
  std::unique_ptr<flor::Env> vanilla_env_;
  std::unique_ptr<flor::Connection> conn_;
  std::unique_ptr<flor::Session> session_;
  int64_t next_run_ = 0;
  int64_t next_vanilla_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeRecordDense(const RunConfig& cfg,
                                          SpanRecorder* rec) {
  return std::make_unique<RecordDense>(cfg, rec);
}

}  // namespace perfbench
