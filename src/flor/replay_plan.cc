#include "flor/replay_plan.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <set>

#include "common/strings.h"
#include "flor/instrument.h"
#include "flor/partition.h"
#include "serialize/sections.h"

namespace flor {

std::vector<int64_t> CheckpointBoundaryEpochs(ir::Program* program,
                                              const Manifest& manifest) {
  // Intersect checkpointed epochs across all skippable epoch-level loops:
  // a worker can start at epoch e+1 only if *every* such loop restored at
  // epoch e reconstructs the state.
  std::vector<ir::Loop*> loops = SkippableEpochLoops(program);
  std::vector<int64_t> out;
  bool first = true;
  for (ir::Loop* loop : loops) {
    std::vector<int64_t> epochs = manifest.EpochsWithCheckpoint(loop->id());
    if (first) {
      out = std::move(epochs);
      first = false;
    } else {
      std::vector<int64_t> merged;
      std::set_intersection(out.begin(), out.end(), epochs.begin(),
                            epochs.end(), std::back_inserter(merged));
      out = std::move(merged);
    }
  }
  return out;
}

Result<int> PlanActiveWorkers(const ProgramFactory& factory,
                              const FileSystem* fs,
                              const ClusterPlanOptions& options) {
  if (!options.sample_epochs.empty()) return 1;
  if (options.num_workers <= 1) return 1;

  FLOR_ASSIGN_OR_RETURN(ProgramInstance instance, factory());
  InstrumentProgram(instance.program.get());
  ir::Loop* main_loop = instance.program->MainLoop();
  if (main_loop == nullptr) return 1;
  const int64_t epochs = main_loop->iter().fixed_count;
  if (epochs < 0) return options.num_workers;  // dynamic trip count

  RunPaths paths(options.run_prefix);
  FLOR_ASSIGN_OR_RETURN(Manifest manifest, ReadManifest(fs, paths.Manifest()));
  const std::vector<int64_t> boundaries =
      CheckpointBoundaryEpochs(instance.program.get(), manifest);
  FLOR_ASSIGN_OR_RETURN(PartitionPlan plan,
                        PartitionMainLoop(epochs, options.num_workers,
                                          options.init_mode, boundaries));
  return static_cast<int>(plan.workers.size());
}

Result<std::vector<int64_t>> PlannedRestoreEpochs(
    const ProgramFactory& factory, const FileSystem* fs,
    const ClusterPlanOptions& options) {
  FLOR_ASSIGN_OR_RETURN(ProgramInstance instance, factory());
  InstrumentProgram(instance.program.get());
  ir::Loop* main_loop = instance.program->MainLoop();
  if (main_loop == nullptr) return std::vector<int64_t>();
  const int64_t epochs = main_loop->iter().fixed_count;
  if (epochs < 0) {
    return Status::FailedPrecondition(
        "PlannedRestoreEpochs: main-loop trip count is dynamic; the plan "
        "is made at run time and cannot be pinned ahead of a GC");
  }

  RunPaths paths(options.run_prefix);
  FLOR_ASSIGN_OR_RETURN(Manifest manifest, ReadManifest(fs, paths.Manifest()));
  const std::vector<int64_t> boundaries =
      CheckpointBoundaryEpochs(instance.program.get(), manifest);

  // Union of init-mode iterations over all planned workers: exactly the
  // epochs whose checkpoints the replay restores before working.
  std::set<int64_t> restore;
  if (!options.sample_epochs.empty()) {
    FLOR_ASSIGN_OR_RETURN(
        WorkerPlan plan,
        PlanSampledEpochs(epochs, options.sample_epochs, boundaries));
    for (const exec::PlannedIter& it : plan.iters) {
      if (it.mode == exec::IterMode::kInit) restore.insert(it.index);
    }
  } else {
    FLOR_ASSIGN_OR_RETURN(PartitionPlan plan,
                          PartitionMainLoop(epochs, options.num_workers,
                                            options.init_mode, boundaries));
    for (const WorkerPlan& wp : plan.workers) {
      for (const exec::PlannedIter& it : wp.iters) {
        if (it.mode == exec::IterMode::kInit) restore.insert(it.index);
      }
    }
  }
  return std::vector<int64_t>(restore.begin(), restore.end());
}

ReplayOptions WorkerReplayOptions(const ClusterPlanOptions& options,
                                  int worker_id) {
  // The request (tier configuration included) travels as one slice, so a
  // field added to ClusterPlanOptions or TierOptions flows to workers
  // without touching this function.
  ReplayOptions ropts;
  static_cast<ClusterPlanOptions&>(ropts) = options;
  ropts.worker_id = worker_id;
  if (!options.sample_epochs.empty()) ropts.num_workers = 1;
  ropts.run_deferred_check = false;  // merged check after the merge
  return ropts;
}

namespace {

// Worker-result format: one "florres1" sectioned message
// (serialize/sections.h). Section 0 is the meta block, sections 1-2 are
// LogStream line encodings, sections 3-4 newline-terminated statement uids.
constexpr char kWorkerResultTag[] = "florres1";
constexpr size_t kWorkerResultSections = 5;

std::string JoinUids(const std::set<int32_t>& uids) {
  std::string out;
  for (int32_t uid : uids) out.append(StrCat(uid, "\n"));
  return out;
}

Result<std::set<int32_t>> SplitUids(const std::string& data) {
  std::set<int32_t> out;
  for (const std::string& line : StrSplit(data, '\n')) {
    if (line.empty()) continue;
    int32_t uid = 0;
    if (!ParseI32(line, &uid))
      return Status::Corruption("worker result: bad statement uid: " + line);
    out.insert(uid);
  }
  return out;
}

}  // namespace

std::string EncodeWorkerResult(const ReplayResult& result) {
  const std::string meta =
      MetaWriter()
          .Double("runtime_seconds", result.runtime_seconds)
          .Double("restore_seconds", result.restore_seconds)
          .Double("observed_c", result.observed_c)
          .Int("effective_init", static_cast<int64_t>(result.effective_init))
          .Int("partition_segments", result.partition_segments)
          .Int("active_workers", result.active_workers)
          .Int("work_begin", result.work_begin)
          .Int("work_end", result.work_end)
          .Counters(result.skipblocks, SkipBlockStats::kFields)
          .Counters(result.tier, TierStats::kFields)
          .Bool("preamble_probed", result.probes.preamble_probed)
          .Finish();

  exec::LogStream probe_stream;
  for (const exec::LogEntry& e : result.probe_entries)
    probe_stream.Append(e);

  return EncodeSections(kWorkerResultTag,
                        {meta, result.logs.Serialize(),
                         probe_stream.Serialize(),
                         JoinUids(result.probes.probe_stmt_uids),
                         JoinUids(result.probes.probed_loops)});
}

Result<ReplayResult> DecodeWorkerResult(const std::string& data) {
  FLOR_ASSIGN_OR_RETURN(std::vector<std::string> sections,
                        DecodeSections(kWorkerResultTag, data));
  if (sections.size() != kWorkerResultSections) {
    return Status::Corruption(
        StrCat("worker result: expected ", kWorkerResultSections,
               " sections, got ", sections.size()));
  }

  MetaReader meta(sections[0], "worker result");
  ReplayResult out;
  FLOR_ASSIGN_OR_RETURN(out.runtime_seconds, meta.Double("runtime_seconds"));
  FLOR_ASSIGN_OR_RETURN(out.restore_seconds, meta.Double("restore_seconds"));
  FLOR_ASSIGN_OR_RETURN(out.observed_c, meta.Double("observed_c"));
  FLOR_ASSIGN_OR_RETURN(const int64_t init, meta.Int("effective_init"));
  if (init != 0 && init != 1)
    return Status::Corruption("worker result: bad effective_init");
  out.effective_init = static_cast<InitMode>(init);
  FLOR_ASSIGN_OR_RETURN(out.partition_segments,
                        meta.Int("partition_segments"));
  FLOR_ASSIGN_OR_RETURN(const int64_t active, meta.Int("active_workers"));
  out.active_workers = static_cast<int>(active);
  FLOR_ASSIGN_OR_RETURN(out.work_begin, meta.Int("work_begin"));
  FLOR_ASSIGN_OR_RETURN(out.work_end, meta.Int("work_end"));
  FLOR_RETURN_IF_ERROR(
      meta.Counters(&out.skipblocks, SkipBlockStats::kFields));
  FLOR_RETURN_IF_ERROR(meta.Counters(&out.tier, TierStats::kFields));
  FLOR_ASSIGN_OR_RETURN(out.probes.preamble_probed,
                        meta.Bool("preamble_probed"));
  FLOR_RETURN_IF_ERROR(meta.Finish());

  FLOR_ASSIGN_OR_RETURN(out.logs, exec::LogStream::Deserialize(sections[1]));
  FLOR_ASSIGN_OR_RETURN(exec::LogStream probe_stream,
                        exec::LogStream::Deserialize(sections[2]));
  out.probe_entries = probe_stream.entries();
  FLOR_ASSIGN_OR_RETURN(out.probes.probe_stmt_uids,
                        SplitUids(sections[3]));
  FLOR_ASSIGN_OR_RETURN(out.probes.probed_loops, SplitUids(sections[4]));
  return out;
}

Result<PartitionOutcomes> SimRunner::Run(int partitions,
                                         const PartitionWork& work) const {
  PartitionOutcomes out;
  out.results.reserve(static_cast<size_t>(partitions));
  for (int w = 0; w < partitions; ++w)
    out.results.push_back(work(w, std::make_unique<SimClock>()));
  return out;
}

namespace {

/// Concatenates worker fragments (indexed by worker id) and deferred-checks
/// the merged stream against the record logs under `run_prefix`.
Result<MergedClusterReplay> MergePartitions(
    std::vector<ReplayResult> workers, const FileSystem* fs,
    const std::string& run_prefix) {
  if (workers.empty())
    return Status::InvalidArgument("replay: no partitions to merge");
  MergedClusterReplay out;
  const ReplayResult& first = workers.front();
  out.workers_used = std::max(1, first.active_workers);
  out.partition_segments = first.partition_segments;
  out.effective_init = first.effective_init;
  const std::set<int32_t>& probe_uids = first.probes.probe_stmt_uids;

  for (const ReplayResult& wres : workers) {
    out.worker_seconds.push_back(wres.runtime_seconds);
    out.merged_logs.ExtendWork(wres.logs);
    out.probe_entries.insert(out.probe_entries.end(),
                             wres.probe_entries.begin(),
                             wres.probe_entries.end());
    out.skipblocks += wres.skipblocks;
    out.tier += wres.tier;
  }
  out.latency_seconds = *std::max_element(out.worker_seconds.begin(),
                                          out.worker_seconds.end());

  // Merged deferred check against the record logs.
  RunPaths paths(run_prefix);
  FLOR_ASSIGN_OR_RETURN(std::string log_bytes, fs->ReadFile(paths.Logs()));
  FLOR_ASSIGN_OR_RETURN(exec::LogStream record_logs,
                        exec::LogStream::Deserialize(log_bytes));
  out.deferred = DeferredCheck(record_logs.entries(),
                               out.merged_logs.entries(), probe_uids);
  return out;
}

}  // namespace

Result<PartitionedReplayResult> RunPartitionedReplay(
    const ProgramFactory& factory, FileSystem* fs,
    const ClusterPlanOptions& options, const PartitionRunner& runner) {
  const auto start = std::chrono::steady_clock::now();
  FLOR_ASSIGN_OR_RETURN(const int active,
                        PlanActiveWorkers(factory, fs, options));

  // Every worker owns its clock, program instance and log stream; the only
  // shared object is the (read-only during replay) record run on `fs`.
  const PartitionWork work =
      [&](int w, std::unique_ptr<Clock> clock) -> Result<ReplayResult> {
    Env env(std::move(clock), fs);
    FLOR_ASSIGN_OR_RETURN(ProgramInstance instance, factory());
    ReplaySession session(&env, WorkerReplayOptions(options, w));
    exec::Frame frame;
    return session.Run(instance.program.get(), &frame);
  };
  FLOR_ASSIGN_OR_RETURN(PartitionOutcomes outcomes,
                        runner.Run(active, work));
  if (outcomes.results.size() != static_cast<size_t>(active)) {
    return Status::Internal(StrCat("replay runner returned ",
                                   outcomes.results.size(),
                                   " results for ", active, " partitions"));
  }

  std::vector<ReplayResult> workers;
  workers.reserve(static_cast<size_t>(active));
  std::vector<std::string> failures;
  Status first_failure = Status::OK();
  for (int w = 0; w < active; ++w) {
    Result<ReplayResult>& slot = outcomes.results[static_cast<size_t>(w)];
    if (slot.ok()) {
      workers.push_back(std::move(slot).value());
      continue;
    }
    failures.push_back(
        StrCat("partition ", w, "/", active, ": ", slot.status().message()));
    if (first_failure.ok()) first_failure = slot.status();
  }
  if (!failures.empty()) {
    return Status(first_failure.code(),
                  StrCat("replay: ", StrJoin(failures, "; "),
                         outcomes.failure_note));
  }

  PartitionedReplayResult result;
  FLOR_ASSIGN_OR_RETURN(
      static_cast<MergedClusterReplay&>(result),
      MergePartitions(std::move(workers), fs, options.run_prefix));
  result.runner = std::move(outcomes.stats);
  result.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  return result;
}

}  // namespace flor
