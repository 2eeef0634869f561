#include "checkpoint/gc.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>
#include <utility>

namespace flor {

namespace {

/// True when `rec` is an epoch-level checkpoint — its ctx is a single
/// "e=N" segment, i.e. a direct child of the main loop. Init-mode restore
/// only ever targets these (restoring an epoch-level loop *skips* its
/// body, so deeper nested loops are never entered during init), which is
/// why epoch pins protect exactly this class of records.
bool IsEpochLevel(const CheckpointRecord& rec) {
  return rec.key.ctx.find('/') == std::string::npos;
}

}  // namespace

std::vector<size_t> PlanRetirement(const Manifest& manifest,
                                   const GcPolicy& policy) {
  std::vector<size_t> retire;
  if (policy.keep_last_k <= 0) return retire;

  const std::set<int64_t> pinned(policy.pinned_epochs.begin(),
                                 policy.pinned_epochs.end());

  // Distinct epoch timeline per loop (nested loops checkpoint several ctx
  // levels per epoch; recency is per *epoch*, not per record).
  std::map<int32_t, std::set<int64_t>> epochs_by_loop;
  for (const auto& rec : manifest.records) {
    if (rec.epoch >= 0) epochs_by_loop[rec.key.loop_id].insert(rec.epoch);
  }

  // Keep set per loop: the K most recent epochs. Pins are applied per
  // record below — only to epoch-level records, the init-restore targets;
  // pinning them into every loop's keep-set here would keep nested-loop
  // checkpoints at pinned epochs forever.
  std::map<int32_t, std::set<int64_t>> keep_by_loop;
  for (const auto& [loop_id, epochs] : epochs_by_loop) {
    std::set<int64_t>& keep = keep_by_loop[loop_id];
    auto it = epochs.rbegin();
    for (int64_t k = 0; k < policy.keep_last_k && it != epochs.rend();
         ++k, ++it) {
      keep.insert(*it);
    }
  }

  for (size_t i = 0; i < manifest.records.size(); ++i) {
    const CheckpointRecord& rec = manifest.records[i];
    if (rec.epoch < 0) continue;  // not on the epoch timeline: eternal
    if (keep_by_loop[rec.key.loop_id].count(rec.epoch)) continue;
    if (IsEpochLevel(rec) && pinned.count(rec.epoch)) continue;
    retire.push_back(i);
  }
  return retire;
}

namespace {

/// The three retirement passes. They share one routine and differ only in
/// whether the manifest is pruned and in how one retired record is deleted.
enum class RetireMode {
  kPrune,   ///< no bucket tier: drop the record, delete the local object
  kDemote,  ///< bucket tier: keep the record, delete the local copy only
  kBucket,  ///< final tier: drop the record, delete both copies
};

/// How one retired record's delete ended.
enum class DeleteOutcome { kRetired, kAlreadyAbsent, kFailed, kUnspooled };

DeleteOutcome Classify(const Status& s) {
  if (s.ok()) return DeleteOutcome::kRetired;
  return s.IsNotFound() ? DeleteOutcome::kAlreadyAbsent
                        : DeleteOutcome::kFailed;
}

/// Deletes one retired record's object(s) through its shard's writer lock.
DeleteOutcome DeleteRetired(CheckpointStore* store,
                            const CheckpointRecord& rec, RetireMode mode) {
  switch (mode) {
    case RetireMode::kPrune:
      return Classify(store->DeleteObject(rec.key));
    case RetireMode::kDemote:
      // Demotion never makes a record unreadable: an object the bucket
      // does not hold (unspooled, or the spool failed) keeps its local copy.
      if (!store->fs()->Exists(store->BucketPathFor(rec.key)))
        return DeleteOutcome::kUnspooled;
      return Classify(store->DeleteObject(rec.key));
    case RetireMode::kBucket: {
      // Reclaim both tiers: the bucket object and any local copy demotion
      // has not yet removed. A hard failure on either leaks an orphan for
      // the reconciliation sweep; both already gone means a prior pass (or
      // crash) got here first.
      const DeleteOutcome bucket = Classify(
          store->DeleteShardPath(rec.shard, store->BucketPathFor(rec.key)));
      const DeleteOutcome local = Classify(store->DeleteObject(rec.key));
      if (bucket == DeleteOutcome::kFailed || local == DeleteOutcome::kFailed)
        return DeleteOutcome::kFailed;
      if (bucket == DeleteOutcome::kAlreadyAbsent &&
          local == DeleteOutcome::kAlreadyAbsent)
        return DeleteOutcome::kAlreadyAbsent;
      return DeleteOutcome::kRetired;
    }
  }
  return DeleteOutcome::kFailed;
}

/// plan → group by shard → (prune + persist the manifest FIRST) → per-shard
/// delete-and-classify. Planning is manifest-only (the store is never
/// listed or scanned). Once the pruned manifest lands in one atomic write,
/// no replay plan can reference a retired record; if the persist fails, the
/// in-memory manifest is restored and nothing is deleted. Delete failures
/// leak orphans (the manifest already dropped the record) — reported, never
/// fatal.
Result<GcReport> Retire(CheckpointStore* store, Manifest* manifest,
                        const std::string& manifest_path,
                        const GcPolicy& policy, RetireMode mode) {
  GcReport report;
  report.shards.resize(static_cast<size_t>(store->num_shards()));
  report.surviving_records = static_cast<int64_t>(manifest->records.size());
  const std::vector<size_t> retire = PlanRetirement(*manifest, policy);
  // Guaranteed no-op: no manifest rewrite, no deletes, store untouched.
  if (retire.empty()) return report;

  std::vector<std::vector<CheckpointRecord>> by_shard(
      static_cast<size_t>(store->num_shards()));
  for (size_t idx : retire) {
    const CheckpointRecord& rec = manifest->records[idx];
    by_shard[static_cast<size_t>(rec.shard)].push_back(rec);
  }

  if (mode == RetireMode::kDemote) {
    // The bucket mirror keeps every retired record readable, so the
    // manifest stays intact and only local copies are reclaimed.
    report.demoted_to_bucket = true;
  } else {
    std::vector<CheckpointRecord> pruned;
    pruned.reserve(manifest->records.size() - retire.size());
    const std::set<size_t> retire_set(retire.begin(), retire.end());
    for (size_t i = 0; i < manifest->records.size(); ++i) {
      if (!retire_set.count(i)) pruned.push_back(manifest->records[i]);
    }
    std::vector<CheckpointRecord> original = std::move(manifest->records);
    manifest->records = std::move(pruned);
    Status persisted =
        store->fs()->WriteFile(manifest_path, manifest->Serialize());
    if (!persisted.ok()) {
      manifest->records = std::move(original);
      return persisted;
    }
    report.manifest_rewritten = true;
    report.surviving_records = static_cast<int64_t>(manifest->records.size());
  }

  // Shard by shard: each delete takes only its shard's writer lock, so a
  // materializer on another shard never contends with retirement.
  for (int shard = 0; shard < store->num_shards(); ++shard) {
    GcShardStats& stats = report.shards[static_cast<size_t>(shard)];
    for (const CheckpointRecord& rec : by_shard[static_cast<size_t>(shard)]) {
      switch (DeleteRetired(store, rec, mode)) {
        case DeleteOutcome::kRetired:
          ++stats.retired_objects;
          stats.retired_bytes += rec.stored_bytes;
          break;
        case DeleteOutcome::kAlreadyAbsent:
          ++stats.already_absent;
          break;
        case DeleteOutcome::kFailed:
          ++stats.failed_deletes;
          break;
        case DeleteOutcome::kUnspooled:
          ++stats.skipped_unspooled;
          break;
      }
    }
  }
  return report;
}

/// Opens the run's store over its manifest, attaching `bucket_prefix` as
/// the bucket tier when non-empty.
Result<OpenedRun> OpenForGc(FileSystem* fs, const std::string& manifest_path,
                            const std::string& ckpt_prefix,
                            const std::string& bucket_prefix) {
  TierOptions tier;
  tier.bucket_prefix = bucket_prefix;
  return OpenRun(fs, manifest_path, ckpt_prefix, tier);
}

}  // namespace

Result<GcReport> RetireCheckpoints(CheckpointStore* store,
                                   Manifest* manifest,
                                   const std::string& manifest_path,
                                   const GcPolicy& policy) {
  return Retire(store, manifest, manifest_path, policy,
                store->has_bucket() ? RetireMode::kDemote
                                    : RetireMode::kPrune);
}

Result<GcReport> RetireBucketCheckpoints(CheckpointStore* store,
                                         Manifest* manifest,
                                         const std::string& manifest_path,
                                         const GcPolicy& policy) {
  if (!store->has_bucket()) {
    return Status::InvalidArgument(
        "bucket retirement requires a store with a bucket tier attached");
  }
  return Retire(store, manifest, manifest_path, policy, RetireMode::kBucket);
}

ReconcileReport ReconcileOrphans(CheckpointStore* store,
                                 const Manifest& manifest) {
  ReconcileReport report;
  report.shards.resize(static_cast<size_t>(store->num_shards()));

  // Every path a manifest record is allowed to occupy, in either tier.
  std::unordered_set<std::string> referenced;
  referenced.reserve(manifest.records.size() * 2);
  for (const auto& rec : manifest.records) {
    referenced.insert(store->PathFor(rec.key));
    if (store->has_bucket()) referenced.insert(store->BucketPathFor(rec.key));
  }

  // Shard prefixes partition both namespaces, so per-shard listings cover
  // every object exactly once.
  for (int shard = 0; shard < store->num_shards(); ++shard) {
    ReconcileShardStats& stats = report.shards[static_cast<size_t>(shard)];
    auto sweep = [&](const std::string& prefix, int64_t* orphans,
                     uint64_t* orphan_bytes) {
      for (const std::string& path :
           store->fs()->ListPrefix(prefix + "/")) {
        if (referenced.count(path)) continue;
        auto size = store->fs()->FileSize(path);
        if (!store->DeleteShardPath(shard, path).ok()) {
          ++stats.failed_deletes;
          continue;
        }
        ++*orphans;
        if (size.ok()) *orphan_bytes += *size;
      }
    };
    sweep(store->ShardPrefix(shard), &stats.local_orphans,
          &stats.local_orphan_bytes);
    if (store->has_bucket()) {
      sweep(store->BucketShardPrefix(shard), &stats.bucket_orphans,
            &stats.bucket_orphan_bytes);
    }
  }
  return report;
}

Result<GcReport> RetireRun(FileSystem* fs, const std::string& manifest_path,
                           const std::string& ckpt_prefix,
                           const GcPolicy& policy,
                           const std::string& bucket_prefix) {
  FLOR_ASSIGN_OR_RETURN(OpenedRun run, OpenForGc(fs, manifest_path,
                                                 ckpt_prefix, bucket_prefix));
  return RetireCheckpoints(run.store.get(), &run.manifest, manifest_path,
                           policy);
}

Result<GcReport> RetireBucketRun(FileSystem* fs,
                                 const std::string& manifest_path,
                                 const std::string& ckpt_prefix,
                                 const std::string& bucket_prefix,
                                 const GcPolicy& policy) {
  FLOR_ASSIGN_OR_RETURN(OpenedRun run, OpenForGc(fs, manifest_path,
                                                 ckpt_prefix, bucket_prefix));
  return RetireBucketCheckpoints(run.store.get(), &run.manifest,
                                 manifest_path, policy);
}

Result<ReconcileReport> ReconcileRun(FileSystem* fs,
                                     const std::string& manifest_path,
                                     const std::string& ckpt_prefix,
                                     const std::string& bucket_prefix) {
  FLOR_ASSIGN_OR_RETURN(OpenedRun run, OpenForGc(fs, manifest_path,
                                                 ckpt_prefix, bucket_prefix));
  return ReconcileOrphans(run.store.get(), run.manifest);
}

}  // namespace flor
