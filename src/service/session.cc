#include "service/service.h"

#include <utility>

#include "common/strings.h"
#include "exec/fork_runner.h"
#include "exec/thread_runner.h"
#include "flor/skipblock.h"
#include "sim/cluster.h"

namespace flor {

namespace {

/// A record/replay run on a connection whose env clock is simulated gets
/// its own fresh SimClock — every run starts at t=0 regardless of what
/// other sessions did, which is exactly the per-worker-clock discipline
/// SimRunner uses, and what keeps service-path results
/// byte-identical to the one-shot entry points. Wall-clock connections
/// keep the shared clock (wall clocks are stateless).
struct RunEnv {
  explicit RunEnv(Env* conn_env) {
    if (conn_env->clock()->is_simulated()) {
      owned = std::make_unique<Env>(std::make_unique<SimClock>(),
                                    conn_env->fs());
      env = owned.get();
    } else {
      env = conn_env;
    }
  }
  std::unique_ptr<Env> owned;
  Env* env = nullptr;
};

}  // namespace

Session::Session(Connection* conn, std::string tenant)
    : conn_(conn), tenant_(std::move(tenant)) {}

Result<std::string> Session::RunPrefix(const std::string& run) const {
  FLOR_RETURN_IF_ERROR(ValidateNamespaceSegment(run, "run"));
  return JoinObjectPath(conn_->TenantRoot(tenant_), run);
}

Result<SessionRecordResult> Session::Record(
    const std::string& run, const ProgramFactory& factory,
    const SessionRecordOptions& options) {
  FLOR_ASSIGN_OR_RETURN(const std::string prefix, RunPrefix(run));
  FLOR_RETURN_IF_ERROR(conn_->BeginOp());
  Connection::OpScope op(conn_);
  const ConnectionOptions& copts = conn_->options();

  RecordOptions ropts;
  static_cast<SessionRecordOptions&>(ropts) = options;
  ropts.run_prefix = prefix;
  ropts.ckpt_shards = copts.ckpt_shards;
  // The connection owns the spool mirror and retirement: sessions spool
  // through the shared queue, and the background worker retires after the
  // run's artifacts are durable.
  ropts.spool_prefix = copts.tier.bucket_prefix;
  ropts.spool = conn_->shared_spool();

  double admission_wait_seconds = 0;
  FLOR_RETURN_IF_ERROR(
      conn_->AcquireRecordSlot(tenant_, &admission_wait_seconds));
  Result<RecordResult> result = [&]() -> Result<RecordResult> {
    RunEnv run_env(conn_->env());
    FLOR_ASSIGN_OR_RETURN(ProgramInstance instance, factory());
    RecordSession session(run_env.env, std::move(ropts));
    exec::Frame frame;
    return session.Run(instance.program.get(), &frame);
  }();
  conn_->ReleaseRecordSlot(tenant_);
  if (!result.ok()) return result.status();

  conn_->Account(tenant_, &ServiceCounters::records_completed, TierStats(),
                 result->spool_report);
  const RunPaths paths(prefix);
  conn_->ScheduleRetirement(tenant_, run, paths.Manifest(),
                            paths.CkptPrefix());
  SessionRecordResult out;
  static_cast<RecordResult&>(out) = std::move(*result);
  out.admission_wait_seconds = admission_wait_seconds;
  return out;
}

Result<SessionReplayResult> Session::Replay(
    const std::string& run, const ProgramFactory& factory,
    const SessionReplayOptions& options) {
  FLOR_ASSIGN_OR_RETURN(const std::string prefix, RunPrefix(run));
  if (options.workers < 1) {
    return Status::InvalidArgument(
        StrCat("replay workers must be >= 1, got ", options.workers));
  }
  FLOR_RETURN_IF_ERROR(conn_->BeginOp());
  Connection::OpScope op(conn_);

  ClusterPlanOptions plan;
  static_cast<TierOptions&>(plan) = conn_->options().tier;
  plan.run_prefix = prefix;
  plan.num_workers = options.workers;
  plan.init_mode = options.init_mode;
  plan.costs = options.costs;
  plan.sample_epochs = options.sample_epochs;

  SimRunner sim_runner;
  const exec::ThreadRunner thread_runner(options.num_threads);
  exec::ForkRunnerOptions fork_options;
  fork_options.scratch_dir = options.scratch_dir;
  const exec::ForkRunner fork_runner(std::move(fork_options));
  const PartitionRunner* runner = &sim_runner;
  switch (options.engine) {
    case ReplayEngine::kSimulated:
      if (options.instance.gpus < 1 ||
          options.workers % options.instance.gpus != 0) {
        return Status::InvalidArgument(
            StrCat("simulated replay: workers (", options.workers,
                   ") must be a positive multiple of instance gpus (",
                   options.instance.gpus, ")"));
      }
      break;
    case ReplayEngine::kThreads:
      runner = &thread_runner;
      break;
    case ReplayEngine::kProcesses:
      runner = &fork_runner;
      break;
  }
  FLOR_ASSIGN_OR_RETURN(
      PartitionedReplayResult replayed,
      RunPartitionedReplay(factory, conn_->env()->fs(), plan, *runner));

  SessionReplayResult out;
  out.engine = options.engine;
  if (options.engine == ReplayEngine::kSimulated) {
    // Latency is modeled, so bill the modeled cluster instead of reporting
    // the host time the model took.
    const sim::Cluster cluster{options.instance,
                               options.workers / options.instance.gpus};
    out.total_cost_dollars = sim::TotalClusterCost(
        sim::PriceCluster(cluster, replayed.worker_seconds));
  } else {
    out.wall_seconds = replayed.wall_seconds;
  }
  static_cast<MergedClusterReplay&>(out) = std::move(replayed);
  conn_->Account(tenant_, &ServiceCounters::replays_completed, out.tier);
  return out;
}

Result<std::vector<RunInfo>> Session::Query() const {
  FLOR_RETURN_IF_ERROR(conn_->BeginOp());
  Connection::OpScope op(conn_);
  conn_->Account(tenant_, &ServiceCounters::queries_served);
  return ListRuns(conn_->env()->fs(), conn_->TenantRoot(tenant_));
}

Result<std::vector<RunInfo>> Session::Query(
    const RunPredicate& predicate) const {
  FLOR_RETURN_IF_ERROR(conn_->BeginOp());
  Connection::OpScope op(conn_);
  conn_->Account(tenant_, &ServiceCounters::queries_served);
  return FindRuns(conn_->env()->fs(), conn_->TenantRoot(tenant_),
                  predicate);
}

Result<std::vector<double>> Session::MetricSeries(
    const std::string& run, const std::string& label) const {
  FLOR_ASSIGN_OR_RETURN(const std::string prefix, RunPrefix(run));
  FLOR_RETURN_IF_ERROR(conn_->BeginOp());
  Connection::OpScope op(conn_);
  conn_->Account(tenant_, &ServiceCounters::queries_served);
  return flor::MetricSeries(conn_->env()->fs(), prefix, label);
}

Result<std::unique_ptr<CheckpointStore>> Session::OpenRunStore(
    const std::string& run) const {
  FLOR_ASSIGN_OR_RETURN(const std::string prefix, RunPrefix(run));
  const RunPaths paths(prefix);
  FLOR_ASSIGN_OR_RETURN(OpenedRun opened,
                        OpenRun(conn_->env()->fs(), paths.Manifest(),
                                paths.CkptPrefix(), conn_->options().tier));
  return std::move(opened.store);
}

Result<bool> Session::Exists(const std::string& run,
                             const CheckpointKey& key) const {
  FLOR_RETURN_IF_ERROR(conn_->BeginOp());
  Connection::OpScope op(conn_);
  auto store = OpenRunStore(run);
  // The store is opened fresh per probe, so its tier stats are exactly
  // this call's read-tier traffic. Probing a missing run is still a query.
  const bool exists = store.ok() && (*store)->Exists(key);
  conn_->Account(tenant_, &ServiceCounters::queries_served,
                 store.ok() ? (*store)->tier_stats() : TierStats());
  if (!store.ok()) return store.status();
  return exists;
}

}  // namespace flor
