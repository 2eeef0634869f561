// replay_finetune — set-up records an AdamW fine-tune run whose backbone
// is frozen, so each ~15 MiB checkpoint mixes dense head weights with
// zero-heavy optimizer state. The timed loop then replays that run with a
// hindsight probe in the main loop (outside the training loop: the
// partial-replay fast path), alternating the thread engine (4 workers) and
// the process engine (4 partitions, pool of 4). Nothing is written in the
// loop; it works restore (read, CRC, decompress, decode), planning, fork,
// result-file transport and merge.
//
// Gated figures: op_p50_s = median thread-engine replay wall
// (replay_threads_s), aux_op_p50_s = median process-engine replay wall
// (replay_procs_s), stored_bytes_per_state_byte of the recorded run.
#include "bench.h"
#include "flor/replay_plan.h"
#include "service/service.h"
#include "workloads/programs.h"

namespace perfbench {
namespace {

constexpr char kRun[] = "base";
constexpr char kRunPrefix[] = "flor/ft/base";
constexpr char kProbeLabel[] = "weight_norm";

flor::workloads::WorkloadProfile FinetuneProfile(uint64_t seed) {
  flor::workloads::WorkloadProfile p;
  p.name = "FinetuneText";
  p.benchmark = "perfbench";
  p.task = "classification";
  p.model = "embedding classifier";
  p.dataset = "synthetic";
  p.fine_tune = true;
  p.epochs = 8;
  p.sim_epoch_seconds = 1;  // simulated clocks only; unused here
  p.task_kind = flor::data::Task::kText;
  // Frozen 64x8 embedding and 1280x1024 projection, trainable 1024x10
  // head: AdamW moments of the frozen weights stay zero.
  p.real_samples = 32;
  p.real_batch = 16;
  p.real_feature_dim = 160;
  p.real_hidden = 1024;
  p.real_classes = 10;
  p.real_vocab = 64;
  p.seed = seed;
  return p;
}

struct ReplayConfig {
  flor::ReplayEngine engine;
  int workers;
  const char* layer;  ///< exec.replay_wall_s.* name
};

constexpr ReplayConfig kThreads4{flor::ReplayEngine::kThreads, 4,
                                 "exec.replay_wall_s.threads.w4"};
constexpr ReplayConfig kProcs4{flor::ReplayEngine::kProcesses, 4,
                               "exec.replay_wall_s.procs.w4"};
constexpr ReplayConfig kThreads1{flor::ReplayEngine::kThreads, 1,
                                 "exec.replay_wall_s.threads.w1"};
constexpr ReplayConfig kProcs1{flor::ReplayEngine::kProcesses, 1,
                               "exec.replay_wall_s.procs.w1"};

class ReplayFinetune : public Workload {
 public:
  ReplayFinetune(const RunConfig& cfg, SpanRecorder* rec)
      : cfg_(cfg), rec_(rec) {}

  flor::Status Setup() override {
    fs_ = std::make_unique<FsStack>(cfg_.work_dir + "/fs", rec_);
    env_ = std::make_unique<flor::Env>(std::make_unique<flor::WallClock>(),
                                       fs_->fs());
    flor::ConnectionOptions copts;
    copts.root = "flor";
    FLOR_ASSIGN_OR_RETURN(conn_, flor::Connection::Open(env_.get(), copts));
    FLOR_ASSIGN_OR_RETURN(session_, conn_->OpenSession("ft"));
    const flor::workloads::WorkloadProfile profile =
        FinetuneProfile(cfg_.seed);
    record_factory_ = flor::workloads::MakeWorkloadFactory(
        profile, flor::workloads::kProbeNone);
    probe_factory_ = flor::workloads::MakeWorkloadFactory(
        profile, flor::workloads::kProbeOuter);
    flor::SessionRecordOptions ropts;
    ropts.workload = profile.name;
    ropts.adaptive.enabled = false;  // checkpoint every epoch
    FLOR_ASSIGN_OR_RETURN(flor::SessionRecordResult res,
                          session_->Record(kRun, record_factory_, ropts));
    raw_bytes_ = 0;
    for (const flor::CheckpointRecord& r : res.manifest.records)
      raw_bytes_ += static_cast<double>(r.raw_bytes);
    checkpoints_ = static_cast<int64_t>(res.manifest.records.size());
    return flor::Status::OK();
  }

  void RunPhase(double seconds, bool traced, Tally* tally,
                PhaseResult* out) override {
    flor::FileSystem* base = fs_->base.get();
    const std::string ckpt_prefix = std::string(kRunPrefix) + "/ckpt";
    // Untimed checks of the recorded run.
    tally->Expect(base->Exists(std::string(kRunPrefix) + "/manifest.tsv"),
                  "manifest of the recorded run");
    tally->Expect(CheckCheckpointsDecode(base, ckpt_prefix, tally) ==
                      checkpoints_,
                  "every manifest checkpoint is stored");
    const double local_bytes =
        static_cast<double>(BytesUnder(base, ckpt_prefix));

    if (traced) {
      rec_->Clear();
      fs_->timing->ResetCounters();
    }
    // Untimed phases alternate the two engines at 4 workers; the traced
    // phase also covers 1 worker, for the per-engine scaling figures.
    std::vector<ReplayConfig> cycle = {kThreads4, kProcs4};
    if (traced) {
      cycle.push_back(kThreads1);
      cycle.push_back(kProcs1);
    }
    std::map<std::string, std::vector<double>> walls;
    std::vector<double> plan_s;
    double workers_used = 0;
    int64_t replays = 0;
    const double deadline = Now() + seconds;
    for (size_t i = 0; Now() < deadline; ++i) {
      const ReplayConfig& rc = cycle[i % cycle.size()];
      RequestScope request(static_cast<int64_t>(i) + 1);
      if (traced) {
        // Re-timed: the engines plan internally too.
        flor::ClusterPlanOptions plan;
        plan.run_prefix = kRunPrefix;
        plan.num_workers = rc.workers;
        const double t0 = Now();
        flor::Result<int> active =
            flor::PlanActiveWorkers(probe_factory_, env_->fs(), plan);
        plan_s.push_back(Now() - t0);
        tally->Check(active.status(), "plan replay");
      }
      flor::SessionReplayOptions ropts;
      ropts.engine = rc.engine;
      ropts.workers = rc.workers;
      ropts.num_threads = rc.workers;
      ropts.scratch_dir = cfg_.work_dir + "/procs";
      flor::Result<flor::SessionReplayResult> res =
          flor::Status::Internal("not run");
      const double t0 = Now();
      {
        ScopedSpan span(traced ? rec_ : nullptr, "session.replay");
        res = session_->Replay(kRun, probe_factory_, ropts);
      }
      const double wall = Now() - t0;
      if (!tally->Check(res.status(), rc.layer)) continue;
      ++replays;
      walls[rc.layer].push_back(wall);
      if (rc.engine == flor::ReplayEngine::kThreads && rc.workers == 4)
        workers_used = res->workers_used;

      // Every engine and worker count must merge to the same bytes, and the
      // hindsight probe's label must be in them.
      const std::string logs = res->merged_logs.Serialize();
      tally->Expect(logs.find(kProbeLabel) != std::string::npos,
                    "probe label in merged logs");
      tally->Expect(res->deferred.ok, "deferred check of the replay");
      if (reference_logs_.empty()) reference_logs_ = logs;
      tally->Expect(logs == reference_logs_,
                    std::string("merged logs byte-identical: ") + rc.layer);
    }

    out->figures["op_p50_s"] = MedianFigure(walls[kThreads4.layer], "s");
    out->figures["aux_op_p50_s"] = MedianFigure(walls[kProcs4.layer], "s");
    out->figures["stored_bytes_per_state_byte"] = {
        raw_bytes_ > 0 ? local_bytes / raw_bytes_ : 0, "B/B", 0};
    out->figures["replay_threads_s"] =
        MedianFigure(walls[kThreads4.layer], "s");
    out->figures["replay_procs_s"] = MedianFigure(walls[kProcs4.layer], "s");
    if (!traced) return;

    for (const ReplayConfig& rc : cycle)
      out->layers[rc.layer] = MedianFigure(walls[rc.layer], "s").value;
    out->layers["exec.workers_used"] = workers_used;
    out->layers["flor.plan_s"] = MedianFigure(plan_s, "s").value;
    out->retimed.push_back("flor.plan_s");
    AddEnvLayers(SelfTimes(rec_->Spans()), fs_->timing->counters(),
                 static_cast<double>(replays),
                 raw_bytes_ * static_cast<double>(replays), out);
    RetimeWorkerResultCodec(tally, out);
    RetimeCodec(base, ckpt_prefix, 4, out);
  }

  void Shutdown(Tally* tally) override {
    if (conn_) tally->Check(conn_->Close(), "connection close");
    session_.reset();
    conn_.reset();
  }

 private:
  /// Runs one single-worker replay in process and times the out-of-process
  /// result transport codec (EncodeWorkerResult / DecodeWorkerResult) on
  /// its result.
  void RetimeWorkerResultCodec(Tally* tally, PhaseResult* out) {
    flor::ClusterPlanOptions plan;
    plan.run_prefix = kRunPrefix;
    plan.num_workers = 1;
    flor::Env env(std::make_unique<flor::WallClock>(), fs_->base.get());
    flor::Result<flor::ProgramInstance> inst = probe_factory_();
    if (!tally->Check(inst.status(), "build probe program")) return;
    flor::ReplaySession session(&env, flor::WorkerReplayOptions(plan, 0));
    flor::exec::Frame frame;
    flor::Result<flor::ReplayResult> result =
        session.Run(inst->program.get(), &frame);
    if (!tally->Check(result.status(), "single-worker replay")) return;
    std::vector<double> enc, dec;
    for (int rep = 0; rep < 5; ++rep) {
      double t0 = Now();
      const std::string bytes = flor::EncodeWorkerResult(*result);
      enc.push_back(Now() - t0);
      t0 = Now();
      flor::Result<flor::ReplayResult> back = flor::DecodeWorkerResult(bytes);
      dec.push_back(Now() - t0);
      tally->Check(back.status(), "decode worker result");
    }
    out->layers["flor.worker_result_encode_s"] = MedianFigure(enc, "s").value;
    out->layers["flor.worker_result_decode_s"] = MedianFigure(dec, "s").value;
    out->retimed.push_back("flor.worker_result_encode_s");
    out->retimed.push_back("flor.worker_result_decode_s");
  }

  RunConfig cfg_;
  SpanRecorder* rec_;
  flor::ProgramFactory record_factory_;
  flor::ProgramFactory probe_factory_;
  double raw_bytes_ = 0;
  int64_t checkpoints_ = 0;
  std::string reference_logs_;
  std::unique_ptr<FsStack> fs_;
  std::unique_ptr<flor::Env> env_;
  std::unique_ptr<flor::Connection> conn_;
  std::unique_ptr<flor::Session> session_;
};

}  // namespace

std::unique_ptr<Workload> MakeReplayFinetune(const RunConfig& cfg,
                                             SpanRecorder* rec) {
  return std::make_unique<ReplayFinetune>(cfg, rec);
}

}  // namespace perfbench
