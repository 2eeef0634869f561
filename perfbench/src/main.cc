// florbench — runs one benchmark workload and prints its result.
//
//   florbench --workload <record_dense|replay_finetune|tenant_mix>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Set-up runs three to nine times, until three seconds of it have passed
// (each torn down but the last); setup_s is their median. --trace 0 then
// runs the timed loop once and reports the gated end-to-end metrics.
// --trace 1 runs the loop twice in the same process, untraced and then with
// spans and the timing filesystem recording, and reports the per-layer
// metrics plus trace.overhead_frac (the traced op_p50_s against the
// untraced one).
//
// The last stdout line is the JSON result
// {"correct", "attempted", "failed", "metrics"}; the lines before it are a
// readable report with every figure's unit and sample count. The full
// result (environment, every figure, per-layer values, errors) is also
// written to <work-dir>/results/, and a traced run's spans next to it.
// Exit code 0 whenever the workload ran; 1 when it could not be set up.
#include <sys/statfs.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Set-up repeats at least kMinSetupReps times and until kSetupBudgetS of
// set-up time has passed, at most kMaxSetupReps times, so a cheap set-up
// gets enough repetitions for a steady median.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 9;
constexpr double kSetupBudgetS = 3;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The gated end-to-end metrics: every workload reports all of them.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_p50_s", "s"},
    {"aux_op_p50_s", "s"},
    {"stored_bytes_per_state_byte", "B/B"},
    {"rss_peak_mb", "MB"},
    {"vm_peak_mb", "MB"},
};

// Per-layer metrics of a traced run; a layer the workload does not
// exercise reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"serialize.compress_s", "s"},
    {"serialize.compress_ratio", "ratio"},
    {"serialize.frame_crc_s", "s"},
    {"serialize.decompress_s", "s"},
    {"checkpoint.encode_s", "s"},
    {"checkpoint.decode_s", "s"},
    {"checkpoint.materialize_main_s", "s"},
    {"checkpoint.stall_s", "s"},
    {"checkpoint.bg_materialize_s", "s"},
    {"checkpoint.group_commit_syncs", "count"},
    {"env.write_s", "s"},
    {"env.write_calls", "count"},
    {"env.write_bytes_per_state_byte", "B/B"},
    {"env.read_s", "s"},
    {"env.read_bytes", "B"},
    {"env.list_calls", "count"},
    {"env.list_s", "s"},
    {"env.delete_calls", "count"},
    {"flor.vanilla_s", "s"},
    {"flor.plan_s", "s"},
    {"flor.worker_result_encode_s", "s"},
    {"flor.worker_result_decode_s", "s"},
    {"exec.replay_wall_s.threads.w1", "s"},
    {"exec.replay_wall_s.threads.w4", "s"},
    {"exec.replay_wall_s.procs.w1", "s"},
    {"exec.replay_wall_s.procs.w4", "s"},
    {"exec.workers_used", "count"},
    {"service.admission_wait_p90_s", "s"},
    {"service.admission_waits", "count"},
    {"service.max_observed_records.burst", "count"},
    {"service.max_observed_records.steady", "count"},
    {"service.spool_bytes", "B"},
    {"service.gc_passes", "count"},
    {"service.gc_failures", "count"},
    {"service.bucket_faults", "count"},
    {"service.bloom_skipped_probes", "count"},
    {"wire.encode_us", "us"},
    {"wire.decode_us", "us"},
    {"server.connect_ms", "ms"},
    {"server.threads_end", "count"},
    {"server.connections_accepted", "count"},
    {"server.requests_served", "count"},
    {"loadgen.lag_p99_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
};

std::string FsTypeName(const std::string& path) {
  struct statfs st {};
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Join(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& item : items)
    out += (out.empty() ? "" : ", ") + item;
  return out;
}

std::string FigureJson(const Figure& f) {
  return "{\"value\": " + Num(f.value) + ", \"unit\": " + JsonString(f.unit) +
         ", \"samples\": " + std::to_string(f.samples) + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: florbench --workload <record_dense|replay_finetune|"
               "tenant_mix> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>]\n");
  return 2;
}

std::unique_ptr<Workload> MakeWorkload(const RunConfig& cfg,
                                       SpanRecorder* rec) {
  if (cfg.workload == "record_dense") return MakeRecordDense(cfg, rec);
  if (cfg.workload == "replay_finetune") return MakeReplayFinetune(cfg, rec);
  if (cfg.workload == "tenant_mix") return MakeTenantMix(cfg, rec);
  return nullptr;
}

int Main(int argc, char** argv) {
  RunConfig cfg;
  std::string work_root = ".bench_run";
  bool have_workload = false, have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--work-dir") {
      work_root = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || !have_seed || !(cfg.seconds > 0)) return Usage();

  cfg.work_dir = work_root + "/" + cfg.workload + "-s" +
                 std::to_string(cfg.seed) + "-t" + (cfg.trace ? "1" : "0");
  const std::string results_dir = work_root + "/results";
  std::error_code ec;
  std::filesystem::remove_all(cfg.work_dir, ec);
  std::filesystem::create_directories(cfg.work_dir, ec);
  std::filesystem::create_directories(results_dir, ec);

  SpanRecorder recorder;
  SpanRecorder* rec = cfg.trace ? &recorder : nullptr;
  if (!MakeWorkload(cfg, rec)) return Usage();

  // Set-up, several times; the last instance runs the timed loop.
  Tally tally;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> wl;
  double setup_total = 0;
  for (int rep = 0; rep < kMaxSetupReps; ++rep) {
    if (rep >= kMinSetupReps && setup_total >= kSetupBudgetS) break;
    if (wl) {
      wl->Shutdown(&tally);
      wl.reset();
      std::filesystem::remove_all(cfg.work_dir, ec);
      std::filesystem::create_directories(cfg.work_dir, ec);
    }
    wl = MakeWorkload(cfg, rec);
    const double t0 = Now();
    flor::Status st = wl->Setup();
    setup_s.push_back(Now() - t0);
    setup_total += setup_s.back();
    if (!st.ok()) {
      std::fprintf(stderr, "florbench: %s set-up failed: %s\n",
                   cfg.workload.c_str(), st.ToString().c_str());
      wl->Shutdown(&tally);
      return 1;
    }
  }

  PhaseResult result;
  PhaseResult untraced;
  wl->RunPhase(cfg.seconds, /*traced=*/false, &tally, &untraced);
  if (cfg.trace) {
    recorder.set_enabled(true);
    wl->RunPhase(cfg.seconds, /*traced=*/true, &tally, &result);
    recorder.set_enabled(false);
    const double base = untraced.figures["op_p50_s"].value;
    result.layers["trace.overhead_frac"] =
        base > 0 ? result.figures["op_p50_s"].value / base - 1 : 0;
  } else {
    result = untraced;
  }
  const ProcStatus proc = ReadProcStatus();
  result.figures["setup_s"] = MedianFigure(setup_s, "s");
  result.figures["rss_peak_mb"] = {proc.vm_hwm_mb, "MB", 0};
  result.figures["vm_peak_mb"] = {proc.vm_peak_mb, "MB", 0};
  wl->Shutdown(&tally);
  wl.reset();

  const std::string tag = cfg.workload + "-seed" + std::to_string(cfg.seed) +
                          "-trace" + (cfg.trace ? "1" : "0");
  if (cfg.trace)
    (void)recorder.WriteTsv(results_dir + "/" + tag + ".spans.tsv");

  // Environment of the run.
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  const std::string fs_type = FsTypeName(cfg.work_dir);
  const std::string flush_policy =
      "PosixFileSystem::WriteFile = ofstream write + rename, no fsync";
  std::filesystem::remove_all(cfg.work_dir, ec);

  // Readable report.
  std::printf("# env: nproc=%ld fs=%s build=%s compiler=\"%s\" flush=\"%s\"\n",
              nproc, fs_type.c_str(), PERFBENCH_BUILD_TYPE, __VERSION__,
              flush_policy.c_str());
  std::printf("# %s seed=%llu seconds=%g trace=%d\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? 1 : 0);
  const double error_rate =
      tally.attempted() > 0
          ? static_cast<double>(tally.failed()) /
                static_cast<double>(tally.attempted())
          : 0;
  result.figures["error_rate"] = {error_rate, "ratio", 0};
  for (const auto& [name, f] : result.figures) {
    std::printf("  %-30s %14.6g %-6s n=%zu\n", name.c_str(), f.value,
                f.unit.c_str(), f.samples);
  }
  if (cfg.trace) {
    for (const MetricSpec& m : kPerLayer) {
      bool retimed = false;
      for (const std::string& r : result.retimed) retimed |= r == m.name;
      std::printf("  %-38s %14.6g %-6s%s\n", m.name, result.layers[m.name],
                  m.unit, retimed ? " (re-timed)" : "");
    }
  }
  for (const std::string& e : tally.errors())
    std::printf("# error: %s\n", e.c_str());

  // Full result file.
  std::vector<std::string> figures, layers, retimed, errors;
  for (const auto& [name, f] : result.figures)
    figures.push_back(JsonString(name) + ": " + FigureJson(f));
  for (const auto& [name, v] : result.layers)
    layers.push_back(JsonString(name) + ": " + Num(v));
  for (const std::string& r : result.retimed) retimed.push_back(JsonString(r));
  for (const std::string& e : tally.errors()) errors.push_back(JsonString(e));
  const std::string detail =
      "{\"workload\": " + JsonString(cfg.workload) +
      ", \"seed\": " + std::to_string(cfg.seed) +
      ", \"seconds\": " + Num(cfg.seconds) +
      ", \"trace\": " + (cfg.trace ? "1" : "0") +
      ", \"env\": {\"nproc\": " + std::to_string(nproc) +
      ", \"fs_type\": " + JsonString(fs_type) +
      ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
      ", \"compiler\": " + JsonString(__VERSION__) +
      ", \"flush_policy\": " + JsonString(flush_policy) +
      "}, \"figures\": {" + Join(figures) + "}, \"layers\": {" +
      Join(layers) + "}, \"retimed\": [" + Join(retimed) +
      "], \"errors\": [" + Join(errors) + "]}\n";
  if (std::FILE* f = std::fopen((results_dir + "/" + tag + ".json").c_str(),
                                "w")) {
    std::fputs(detail.c_str(), f);
    std::fclose(f);
  }

  // The result line.
  std::vector<std::string> metrics;
  auto add = [&](const char* name, double value, const char* unit) {
    metrics.push_back(JsonString(name) + ": {\"value\": " + Num(value) +
                      ", \"unit\": " + JsonString(unit) + "}");
  };
  if (cfg.trace) {
    for (const MetricSpec& m : kPerLayer)
      add(m.name, result.layers[m.name], m.unit);
  } else {
    for (const MetricSpec& m : kEndToEnd)
      add(m.name, result.figures[m.name].value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              tally.failed() == 0 ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(1, tally.attempted())),
              static_cast<long long>(tally.failed()), Join(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
