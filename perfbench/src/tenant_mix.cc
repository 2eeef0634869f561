// tenant_mix — one flor::Server on a unix socket in front of a Connection
// with a bucket tier, bloom filters, keep_last_k=1 GC demotion and a
// 2-slot fair admission gate (per-tenant quota 1). Four client threads:
//
//   * burst   — records small-checkpoint runs back to back (closed loop)
//               over one persistent wire connection;
//   * steady0/steady1 — record shorter small-checkpoint runs at seeded
//               arrival times (open loop), each over one persistent wire
//               connection;
//   * query   — opens a new wire connection per request at seeded arrival
//               times (open loop) and cycles query, exists on a present
//               key, exists on a demoted key, exists on an absent key, all
//               against a tenant namespace recorded in set-up.
//
// Open-loop latencies are timed from each arrival's due time, so a stall
// also charges the requests queued behind it; how late the generator sent
// them is loadgen.lag_p99_ms. Arrival times are a fixed count of seeded
// uniform draws over the phase (a Poisson process conditioned on its
// count), so every run offers the same load.
//
// Gated figures: op_p50_s = median burst record wall (burst_record_p50_s),
// aux_op_p50_s = median steady record latency from due time
// (steady_record_p50_s), stored_bytes_per_state_byte = stored checkpoint
// bytes / raw snapshot bytes of the checked runs. Query latencies are
// reported, not gated: a query is a few milliseconds of syscalls and
// thread handoffs, which host scheduling moved by 2x between runs.
#include <algorithm>
#include <deque>
#include <filesystem>
#include <random>
#include <thread>

#include "bench.h"
#include "checkpoint/checkpoint.h"
#include "common/strings.h"
#include "service/server.h"
#include "service/service.h"
#include "service/wire.h"
#include "workloads/programs.h"

namespace perfbench {
namespace {

constexpr int64_t kEpochs = 3;
constexpr double kSteadyRatePerTenant = 3.0;  // records/s
constexpr double kQueryRate = 55.0;           // requests/s
constexpr int kQueryRuns = 4;
/// Acked runs a record client keeps on disk. Older ones are checked and
/// their files deleted (untimed) once their GC pass has finished, and run
/// names cycle through a ring one larger, so the store holds the same
/// files and directories however long the phase runs.
constexpr size_t kLiveRunsPerClient = 4;
constexpr size_t kRunNameRing = kLiveRunsPerClient + 1;
constexpr char kQueryTenant[] = "q";
constexpr char kBucket[] = "bucket";
/// Served workload specs. Both kinds of run spend most of their time
/// waiting on a modeled accelerator (WorkloadProfile::wall_batch_seconds),
/// so recorders hold admission slots like GPU jobs instead of taking CPU
/// from the service, and every record also carries a few milliseconds of
/// service work (wire, admission, checkpoint writes, spool, GC).
constexpr char kSteadySpec[] = "steady";
constexpr char kBurstSpec[] = "burst";

flor::workloads::WorkloadProfile SmallProfile(uint64_t seed) {
  flor::workloads::WorkloadProfile p;
  p.name = "SmallMLP";
  p.benchmark = "perfbench";
  p.task = "classification";
  p.model = "MLP";
  p.dataset = "synthetic";
  p.epochs = kEpochs;
  p.sim_epoch_seconds = 1;  // simulated clocks only; unused here
  p.task_kind = flor::data::Task::kVision;
  p.real_samples = 64;
  p.real_batch = 16;
  p.real_feature_dim = 24;
  p.real_hidden = 24;
  p.real_classes = 4;
  p.seed = seed;
  return p;
}

/// Steady tenants' runs: 12 batches with 4 ms of device wait each.
flor::workloads::WorkloadProfile SteadyProfile(uint64_t seed) {
  flor::workloads::WorkloadProfile p = SmallProfile(seed);
  p.name = "SteadyMLP";
  p.wall_batch_seconds = 0.004;
  return p;
}

/// The burst tenant's and the query tenant's runs: 48 batches with 2 ms of
/// device wait each.
flor::workloads::WorkloadProfile BurstProfile(uint64_t seed) {
  flor::workloads::WorkloadProfile p = SmallProfile(seed);
  p.name = "BurstMLP";
  p.real_samples = 256;
  p.wall_batch_seconds = 0.002;
  return p;
}

/// `count` seeded arrival offsets in [0, seconds), sorted.
std::vector<double> Arrivals(uint64_t seed, double rate, double seconds) {
  const size_t count = static_cast<size_t>(rate * seconds);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0, seconds);
  std::vector<double> out(count);
  for (double& t : out) t = uni(rng);
  std::sort(out.begin(), out.end());
  return out;
}

/// Waits until steady-clock time `t`: sleeps to 2 ms before it, then spins,
/// because a plain sleep oversleeps by milliseconds on a busy host and that
/// lateness would be charged to the system as latency.
void WaitUntil(double t) {
  const double sleep = t - Now() - 0.002;
  if (sleep > 0)
    std::this_thread::sleep_for(std::chrono::duration<double>(sleep));
  while (Now() < t) {
  }
}

bool SameRuns(const std::vector<flor::RunInfo>& a,
              const std::vector<flor::RunInfo>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].prefix != b[i].prefix || a[i].workload != b[i].workload ||
        a[i].record_runtime_seconds != b[i].record_runtime_seconds ||
        a[i].checkpoints != b[i].checkpoints)
      return false;
  }
  return true;
}

/// What the client threads of one phase collect (each thread owns its own
/// instance; merged after join).
struct ClientLog {
  std::vector<double> latency_s;    ///< per completed request
  /// Query client: latency by request kind (query, exists present,
  /// exists demoted, exists absent).
  std::vector<double> kind_latency_s[4];
  std::vector<double> lag_s;        ///< open loop: send time - due time
  std::vector<double> admission_s;  ///< records: admission-gate wait
  std::vector<double> connect_s;    ///< query client: connect time
  /// Acked runs not yet checked and deleted, oldest first, with the
  /// tenant's completed-record count at their ack.
  std::deque<std::pair<std::string, int64_t>> live_runs;
  double raw_bytes = 0;  ///< raw snapshot bytes of acked records
  double bg_materialize_s = 0;
  int64_t records = 0;
  /// Checked runs: stored checkpoint bytes and their raw snapshot bytes.
  double checked_stored_bytes = 0;
  double checked_raw_bytes = 0;
};

class TenantMix : public Workload {
 public:
  TenantMix(const RunConfig& cfg, SpanRecorder* rec) : cfg_(cfg), rec_(rec) {}

  flor::Status Setup() override {
    fs_ = std::make_unique<FsStack>(cfg_.work_dir + "/fs", rec_);
    env_ = std::make_unique<flor::Env>(std::make_unique<flor::WallClock>(),
                                       fs_->fs());
    flor::ConnectionOptions copts;
    copts.root = "svc";
    copts.tier.bucket_prefix = kBucket;
    copts.tier.bloom_filter = true;
    copts.gc.keep_last_k = 1;
    copts.max_concurrent_records = 2;
    copts.max_records_per_tenant = 1;
    copts.fair_admission = true;
    FLOR_ASSIGN_OR_RETURN(conn_, flor::Connection::Open(env_.get(), copts));

    steady_factory_ = flor::workloads::MakeWorkloadFactory(
        SteadyProfile(cfg_.seed), flor::workloads::kProbeNone);
    burst_factory_ = flor::workloads::MakeWorkloadFactory(
        BurstProfile(cfg_.seed), flor::workloads::kProbeNone);
    record_opts_.workload = "perfbench";
    record_opts_.adaptive.enabled = false;  // checkpoint every epoch

    flor::ServerOptions sopts;
    sopts.unix_path = cfg_.work_dir + "/s.sock";
    sopts.resolve_workload = [this](const std::string& spec)
        -> flor::Result<flor::ResolvedWorkload> {
      if (spec == kSteadySpec)
        return flor::ResolvedWorkload{steady_factory_, record_opts_};
      if (spec == kBurstSpec)
        return flor::ResolvedWorkload{burst_factory_, record_opts_};
      return flor::Status::NotFound("unknown workload " + spec);
    };
    FLOR_ASSIGN_OR_RETURN(server_, flor::Server::Start(conn_.get(), sopts));

    // The query tenant's namespace: recorded once, in process, and left
    // alone afterwards, so query cost does not depend on how many runs the
    // other tenants have recorded.
    FLOR_ASSIGN_OR_RETURN(std::unique_ptr<flor::Session> q,
                          conn_->OpenSession(kQueryTenant));
    flor::Manifest first;
    for (int i = 0; i < kQueryRuns; ++i) {
      FLOR_ASSIGN_OR_RETURN(
          flor::SessionRecordResult res,
          q->Record("q" + std::to_string(i), burst_factory_, record_opts_));
      if (i == 0) first = res.manifest;
    }
    conn_->DrainBackground();
    if (first.records.size() != static_cast<size_t>(kEpochs))
      return flor::Status::Internal("query run has the wrong checkpoints");
    present_key_ = first.records.back().key;
    demoted_key_ = first.records.front().key;
    absent_key_ = flor::CheckpointKey{present_key_.loop_id, "e=999"};
    // The demoted key must be gone from the local tier and live in the
    // bucket, or the "exists on a demoted key" probe tests nothing.
    const std::string local =
        "svc/q/q0/ckpt/" + demoted_key_.ToString() + ".ckpt";
    if (fs_->base->Exists(local) ||
        !fs_->base->Exists(std::string(kBucket) + "/" + local))
      return flor::Status::Internal("GC did not demote " + local);
    FLOR_ASSIGN_OR_RETURN(expected_runs_, q->Query());

    // Warm-up: one record per record tenant and one round of each query
    // kind over the wire.
    Tally warm_tally;
    ClientLog warm;
    FLOR_ASSIGN_OR_RETURN(flor::WireClient client,
                          flor::WireClient::ConnectUnix(server_->unix_path()));
    for (const char* tenant : {"burst", "steady0", "steady1"})
      RecordOnce(&client, tenant, "warm", false, &warm_tally, &warm);
    for (int kind = 0; kind < 4; ++kind)
      QueryOnce(kind, false, &warm_tally, &warm);
    if (warm_tally.failed() > 0)
      return flor::Status::Internal("warm-up failed: " +
                                    warm_tally.errors().front());
    return flor::Status::OK();
  }

  void RunPhase(double seconds, bool traced, Tally* tally,
                PhaseResult* out) override {
    if (traced) {
      rec_->Clear();
      fs_->timing->ResetCounters();
    }
    const flor::ConnectionStats conn_before = conn_->stats();
    const flor::ServerStats server_before = server_->stats();
    ++phase_;
    const double start = Now() + 0.05;
    const double deadline = start + seconds;

    ClientLog burst, steady[2], query;
    std::vector<std::thread> clients;
    clients.emplace_back([&] { BurstClient(deadline, traced, tally, &burst); });
    for (int i = 0; i < 2; ++i) {
      clients.emplace_back([&, i] {
        SteadyClient(i, start, seconds, traced, tally, &steady[i]);
      });
    }
    clients.emplace_back(
        [&] { QueryClient(start, seconds, traced, tally, &query); });
    for (std::thread& t : clients) t.join();
    const double phase_wall = Now() - start;
    const ProcStatus proc = ReadProcStatus();

    // Untimed: check the runs the clients still hold (GC and spool
    // drained first), and that no GC pass failed.
    conn_->DrainBackground();
    const std::string tenants[] = {"burst", "steady0", "steady1"};
    ClientLog* logs[] = {&burst, &steady[0], &steady[1]};
    ClientLog records;
    for (int i = 0; i < 3; ++i) {
      ClientLog* log = logs[i];
      for (const auto& live : log->live_runs)
        CheckRun(tenants[i], live.first, /*remove=*/false, tally, log);
      log->live_runs.clear();
      records.admission_s.insert(records.admission_s.end(),
                                 log->admission_s.begin(),
                                 log->admission_s.end());
      records.raw_bytes += log->raw_bytes;
      records.bg_materialize_s += log->bg_materialize_s;
      records.records += log->records;
      records.checked_stored_bytes += log->checked_stored_bytes;
      records.checked_raw_bytes += log->checked_raw_bytes;
      if (traced && i == 1)
        RetimeCodec(fs_->base.get(), "svc/" + tenants[i] + "/", 8, out);
      // Nothing walks the store now: drop the tenant's runs entirely.
      std::error_code ec;
      std::filesystem::remove_all(fs_->root + "/svc/" + tenants[i], ec);
      std::filesystem::remove_all(
          fs_->root + "/" + kBucket + "/svc/" + tenants[i], ec);
    }
    const flor::ConnectionStats conn_after = conn_->stats();
    tally->Expect(conn_after.gc_failures == conn_before.gc_failures,
                  "no failed GC pass: " + conn_after.last_gc_error);

    std::vector<double> steady_latency = steady[0].latency_s;
    steady_latency.insert(steady_latency.end(), steady[1].latency_s.begin(),
                          steady[1].latency_s.end());
    out->figures["op_p50_s"] = MedianFigure(burst.latency_s, "s");
    out->figures["aux_op_p50_s"] = MedianFigure(steady_latency, "s");
    out->figures["stored_bytes_per_state_byte"] = {
        records.checked_raw_bytes > 0
            ? records.checked_stored_bytes / records.checked_raw_bytes
            : 0,
        "B/B", 0};
    out->figures["steady_record_p50_s"] = MedianFigure(steady_latency, "s");
    Figure tail;
    if (TailFigure(steady_latency, 0.9, "s", 1, &tail))
      out->figures["steady_record_p90_s"] = tail;
    out->figures["query_p50_ms"] = MedianFigure(query.latency_s, "ms", 1e3);
    const char* kinds[] = {"query", "exists_present", "exists_demoted",
                           "exists_absent"};
    for (int k = 0; k < 4; ++k) {
      out->figures[std::string("query_p50_ms.") + kinds[k]] =
          MedianFigure(query.kind_latency_s[k], "ms", 1e3);
    }
    if (TailFigure(query.latency_s, 0.99, "ms", 1e3, &tail))
      out->figures["query_p99_ms"] = tail;
    out->figures["burst_record_p50_s"] = MedianFigure(burst.latency_s, "s");
    out->figures["query_lag_p50_ms"] = MedianFigure(query.lag_s, "ms", 1e3);
    out->figures["records_per_s"] = {
        static_cast<double>(records.records) / phase_wall, "1/s", 0};
    if (!traced) return;

    const flor::ServerStats server_after = server_->stats();
    const double ops = static_cast<double>(records.records) +
                       static_cast<double>(query.latency_s.size());
    const double per = ops > 0 ? 1.0 / ops : 0;
    auto tenant_sum = [](const flor::ConnectionStats& s,
                         int64_t flor::TenantStats::*field) {
      int64_t total = 0;
      for (const auto& [name, t] : s.tenants) total += t.*field;
      return total;
    };
    auto delta = [&](int64_t flor::TenantStats::*field) {
      return static_cast<double>(tenant_sum(conn_after, field) -
                                 tenant_sum(conn_before, field)) *
             per;
    };
    Figure p90;
    out->layers["service.admission_wait_p90_s"] =
        TailFigure(records.admission_s, 0.9, "s", 1, &p90) ? p90.value : 0;
    out->layers["service.admission_waits"] =
        static_cast<double>(conn_after.admission_waits -
                            conn_before.admission_waits) *
        per;
    auto max_observed = [&](const std::string& tenant) {
      auto it = conn_after.tenants.find(tenant);
      return it == conn_after.tenants.end()
                 ? 0.0
                 : static_cast<double>(it->second.max_observed_records);
    };
    out->layers["service.max_observed_records.burst"] = max_observed("burst");
    out->layers["service.max_observed_records.steady"] =
        std::max(max_observed("steady0"), max_observed("steady1"));
    out->layers["service.spool_bytes"] = delta(&flor::TenantStats::spool_bytes);
    out->layers["service.gc_passes"] =
        static_cast<double>(conn_after.gc_passes - conn_before.gc_passes) * per;
    out->layers["service.gc_failures"] =
        static_cast<double>(conn_after.gc_failures - conn_before.gc_failures) *
        per;
    out->layers["service.bucket_faults"] =
        delta(&flor::TenantStats::bucket_faults);
    out->layers["service.bloom_skipped_probes"] =
        delta(&flor::TenantStats::bloom_skipped_probes);
    out->layers["server.connect_ms"] =
        MedianFigure(query.connect_s, "ms", 1e3).value;
    out->layers["server.threads_end"] = proc.threads;
    out->layers["server.connections_accepted"] =
        static_cast<double>(server_after.connections_accepted -
                            server_before.connections_accepted) *
        per;
    out->layers["server.requests_served"] =
        static_cast<double>(server_after.requests_served -
                            server_before.requests_served) *
        per;
    std::vector<double> lag = query.lag_s;
    for (const ClientLog& s : steady)
      lag.insert(lag.end(), s.lag_s.begin(), s.lag_s.end());
    Figure lag99;
    out->layers["loadgen.lag_p99_ms"] =
        TailFigure(lag, 0.99, "ms", 1e3, &lag99) ? lag99.value : 0;
    out->layers["checkpoint.bg_materialize_s"] =
        records.records > 0
            ? records.bg_materialize_s / static_cast<double>(records.records)
            : 0;
    AddEnvLayers(SelfTimes(rec_->Spans()), fs_->timing->counters(), ops,
                 records.raw_bytes, out);
    RetimeWire(out);
  }

  void Shutdown(Tally* tally) override {
    // Graceful drain: refuse new work, finish in-flight requests, drain
    // spool and GC, then take the listener down.
    if (conn_) tally->Check(conn_->Close(), "connection close");
    if (server_) {
      server_->Stop();
      tally->Expect(server_->stats().corrupt_messages == 0,
                    "no corrupt wire messages");
    }
    server_.reset();
    conn_.reset();
  }

 private:
  /// Untimed check of one acked run: its manifest is on disk, and every
  /// checkpoint the manifest lists is held by at least one tier and
  /// decodes from each tier that holds it. Adds the run's stored and raw
  /// bytes to `log`, then deletes the run from both tiers if `remove`.
  void CheckRun(const std::string& tenant, const std::string& run,
                bool remove, Tally* tally, ClientLog* log) {
    flor::FileSystem* base = fs_->base.get();
    const std::string prefix = "svc/" + tenant + "/" + run;
    const std::string bucket_prefix = std::string(kBucket) + "/" + prefix;
    flor::Result<std::string> manifest =
        base->ReadFile(prefix + "/manifest.tsv");
    if (tally->Check(manifest.status(), "manifest of acked record " + prefix)) {
      flor::Result<flor::Manifest> m = flor::Manifest::Deserialize(*manifest);
      if (tally->Check(m.status(), "parse manifest of " + prefix)) {
        for (const flor::CheckpointRecord& r : m->records) {
          const std::string obj = "/ckpt/" + r.key.ToString() + ".ckpt";
          int copies = 0;
          for (const std::string& path : {prefix + obj, bucket_prefix + obj}) {
            if (!base->Exists(path)) continue;
            flor::Result<std::string> data = base->ReadFile(path);
            if (!tally->Check(data.status(), "read " + path)) continue;
            tally->Check(flor::DecodeCheckpoint(*data).status(),
                         "decode " + path);
            if (copies++ == 0) {
              log->checked_stored_bytes += static_cast<double>(data->size());
              log->checked_raw_bytes += static_cast<double>(r.raw_bytes);
            }
          }
          tally->Expect(copies > 0, "a tier holds " + prefix + obj);
        }
      }
    }
    if (!remove) return;
    // Files only: PosixFileSystem::ListPrefix walks the whole root and
    // aborts the process if a directory vanishes under it, and queries and
    // GC passes walk it concurrently. The emptied directories are reused
    // by the next run of the same name and removed after the phase.
    for (const std::string& dir : {prefix, bucket_prefix}) {
      const std::string real = fs_->root + "/" + dir;
      std::error_code ec;
      std::vector<std::filesystem::path> files;
      for (auto it = std::filesystem::recursive_directory_iterator(real, ec);
           !ec && it != std::filesystem::recursive_directory_iterator();
           it.increment(ec)) {
        if (it->is_regular_file(ec)) files.push_back(it->path());
      }
      for (const std::filesystem::path& f : files)
        std::filesystem::remove(f, ec);
    }
  }

  /// Checks and deletes the client's oldest acked runs beyond
  /// kLiveRunsPerClient, each once its GC pass has finished (waiting for
  /// it), so the store holds the same runs throughout the phase.
  void RetireOldRuns(const std::string& tenant, Tally* tally,
                     ClientLog* log) {
    const double give_up = Now() + 10;
    while (log->live_runs.size() > kLiveRunsPerClient) {
      const flor::ConnectionStats stats = conn_->stats();
      auto it = stats.tenants.find(tenant);
      if (it == stats.tenants.end() ||
          it->second.gc_passes + it->second.gc_failures <
              log->live_runs.front().second) {
        if (Now() > give_up) {
          tally->Expect(false, "GC pass of " + tenant + "/" +
                                   log->live_runs.front().first);
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      CheckRun(tenant, log->live_runs.front().first, /*remove=*/true, tally,
               log);
      log->live_runs.pop_front();
    }
  }

  /// One wire record; fills `log` and checks the reply. True when acked.
  bool RecordOnce(flor::WireClient* client, const std::string& tenant,
                  const std::string& run, bool traced, Tally* tally,
                  ClientLog* log) {
    flor::wire::Request req;
    req.op = "record";
    req.tenant = tenant;
    req.run = run;
    req.workload = tenant == "burst" ? kBurstSpec : kSteadySpec;
    flor::Result<flor::wire::Response> res = flor::Status::Internal("not run");
    {
      ScopedSpan span(traced ? rec_ : nullptr, "wire.record");
      res = client->Call(req);
    }
    const std::string what = "record " + tenant + "/" + run;
    if (!tally->Check(res.status(), what)) return false;
    flor::Result<flor::wire::RecordReply> reply =
        flor::wire::ParseRecordReply(*res);
    if (!tally->Check(reply.status(), what)) return false;
    flor::Result<flor::Manifest> m =
        flor::Manifest::Deserialize(reply->manifest);
    if (!tally->Check(m.status(), what + " manifest")) return false;
    tally->Expect(reply->checkpoints == kEpochs &&
                      static_cast<int64_t>(m->records.size()) == kEpochs,
                  what + " checkpoints");
    for (const flor::CheckpointRecord& r : m->records) {
      log->raw_bytes += static_cast<double>(r.raw_bytes);
      log->bg_materialize_s += r.materialize_seconds;
    }
    log->admission_s.push_back(reply->admission_wait_seconds);
    const flor::ConnectionStats stats = conn_->stats();
    auto it = stats.tenants.find(tenant);
    log->live_runs.emplace_back(
        run, it == stats.tenants.end() ? 0 : it->second.records_completed);
    ++log->records;
    return true;
  }

  void BurstClient(double deadline, bool traced, Tally* tally,
                   ClientLog* log) {
    flor::Result<flor::WireClient> client =
        flor::WireClient::ConnectUnix(server_->unix_path());
    if (!tally->Check(client.status(), "burst connect")) return;
    for (int64_t i = 0; Now() < deadline; ++i) {
      RequestScope request(i);
      const double t0 = Now();
      if (RecordOnce(&*client, "burst", RunName(i), traced, tally, log))
        log->latency_s.push_back(Now() - t0);
      RetireOldRuns("burst", tally, log);
    }
  }

  void SteadyClient(int index, double start, double seconds, bool traced,
                    Tally* tally, ClientLog* log) {
    const std::string tenant = "steady" + std::to_string(index);
    flor::Result<flor::WireClient> client =
        flor::WireClient::ConnectUnix(server_->unix_path());
    if (!tally->Check(client.status(), tenant + " connect")) return;
    const std::vector<double> arrivals =
        Arrivals(ScheduleSeed(1 + static_cast<uint64_t>(index)),
                 kSteadyRatePerTenant, seconds);
    for (size_t i = 0; i < arrivals.size(); ++i) {
      const double due = start + arrivals[i];
      WaitUntil(due);
      log->lag_s.push_back(Now() - due);
      RequestScope request(static_cast<int64_t>(i));
      if (RecordOnce(&*client, tenant, RunName(static_cast<int64_t>(i)),
                     traced, tally, log))
        log->latency_s.push_back(Now() - due);
      RetireOldRuns(tenant, tally, log);
    }
  }

  void QueryClient(double start, double seconds, bool traced, Tally* tally,
                   ClientLog* log) {
    const std::vector<double> arrivals =
        Arrivals(ScheduleSeed(0), kQueryRate, seconds);
    for (size_t i = 0; i < arrivals.size(); ++i) {
      const double due = start + arrivals[i];
      WaitUntil(due);
      log->lag_s.push_back(Now() - due);
      RequestScope request(static_cast<int64_t>(i));
      const int kind = static_cast<int>(i % 4);
      if (QueryOnce(kind, traced, tally, log)) {
        log->latency_s.push_back(Now() - due);
        log->kind_latency_s[kind].push_back(Now() - due);
      }
    }
  }

  /// One query-client request on a fresh connection: kind 0 = query,
  /// 1 = exists on a present key, 2 = on a demoted key, 3 = on an absent
  /// key. True when the answer was right.
  bool QueryOnce(int kind, bool traced, Tally* tally, ClientLog* log) {
    flor::wire::Request req;
    req.tenant = kQueryTenant;
    if (kind == 0) {
      req.op = "query";
    } else {
      req.op = "exists";
      req.run = "q0";
      const flor::CheckpointKey& key =
          kind == 1 ? present_key_ : kind == 2 ? demoted_key_ : absent_key_;
      req.loop_id = key.loop_id;
      req.ctx = key.ctx;
    }
    const double t0 = Now();
    flor::Result<flor::WireClient> client = flor::Status::Internal("");
    {
      ScopedSpan span(traced ? rec_ : nullptr, "wire.connect");
      client = flor::WireClient::ConnectUnix(server_->unix_path());
    }
    log->connect_s.push_back(Now() - t0);
    if (!tally->Check(client.status(), "query connect")) return false;
    flor::Result<flor::wire::Response> res = flor::Status::Internal("");
    {
      ScopedSpan span(traced ? rec_ : nullptr, "wire." + req.op);
      res = client->Call(req);
    }
    client->Disconnect();
    if (!tally->Check(res.status(), req.op)) return false;
    if (capture_.size() < 4) capture_.emplace_back(req, *res);
    bool right = false;
    if (kind == 0) {
      flor::Result<flor::wire::QueryReply> reply =
          flor::wire::ParseQueryReply(*res);
      right = reply.ok() && SameRuns(reply->runs, expected_runs_);
    } else {
      flor::Result<flor::wire::ExistsReply> reply =
          flor::wire::ParseExistsReply(*res);
      right = reply.ok() && reply->exists == (kind != 3);
    }
    return tally->Expect(right, "wire answer of " + req.op + " kind " +
                                    std::to_string(kind));
  }

  /// Seed of one client's arrival schedule in the current phase.
  uint64_t ScheduleSeed(uint64_t client) const {
    return cfg_.seed * 1000003 + static_cast<uint64_t>(phase_) * 101 + client;
  }

  /// Re-times the wire codec on requests and responses captured from the
  /// run (microseconds per message, medians).
  void RetimeWire(PhaseResult* out) {
    std::vector<double> enc, dec;
    for (int rep = 0; rep < 50; ++rep) {
      for (const auto& [req, res] : capture_) {
        double t0 = Now();
        const std::string req_bytes = flor::wire::EncodeRequest(req);
        const std::string res_bytes = flor::wire::EncodeResponse(res);
        enc.push_back(Now() - t0);
        t0 = Now();
        flor::Result<flor::wire::Request> req_back =
            flor::wire::DecodeRequest(req_bytes);
        flor::Result<flor::wire::Response> res_back =
            flor::wire::DecodeResponse(res_bytes);
        dec.push_back(Now() - t0);
        (void)req_back;
        (void)res_back;
      }
    }
    out->layers["wire.encode_us"] = MedianFigure(enc, "us", 1e6).value;
    out->layers["wire.decode_us"] = MedianFigure(dec, "us", 1e6).value;
    out->retimed.push_back("wire.encode_us");
    out->retimed.push_back("wire.decode_us");
  }

  std::string RunName(int64_t i) const {
    return "p" + std::to_string(phase_) + "r" +
           std::to_string(i % static_cast<int64_t>(kRunNameRing));
  }

  RunConfig cfg_;
  SpanRecorder* rec_;
  flor::ProgramFactory steady_factory_;
  flor::ProgramFactory burst_factory_;
  flor::SessionRecordOptions record_opts_;
  flor::CheckpointKey present_key_, demoted_key_, absent_key_;
  std::vector<flor::RunInfo> expected_runs_;
  int phase_ = 0;
  /// One request/response pair per query kind (query client thread only).
  std::vector<std::pair<flor::wire::Request, flor::wire::Response>> capture_;
  std::unique_ptr<FsStack> fs_;
  std::unique_ptr<flor::Env> env_;
  std::unique_ptr<flor::Connection> conn_;
  std::unique_ptr<flor::Server> server_;
};

}  // namespace

std::unique_ptr<Workload> MakeTenantMix(const RunConfig& cfg,
                                        SpanRecorder* rec) {
  return std::make_unique<TenantMix>(cfg, rec);
}

}  // namespace perfbench
