#include "bench.h"

#include <fstream>
#include <sstream>

#include "checkpoint/checkpoint.h"
#include "common/strings.h"
#include "serialize/compress.h"
#include "serialize/frame.h"

namespace perfbench {

namespace {

bool IsCheckpointObject(const std::string& path) {
  return flor::EndsWith(path, ".ckpt");
}

}  // namespace

void Tally::Add(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (errors_.size() < 8) errors_.push_back(what);
}

bool Tally::Check(const flor::Status& st, const std::string& what) {
  Add(st.ok(), what + ": " + st.ToString());
  return st.ok();
}

bool Tally::Expect(bool cond, const std::string& what) {
  Add(cond, what);
  return cond;
}

int64_t Tally::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

int64_t Tally::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

std::vector<std::string> Tally::errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return errors_;
}

FsStack::FsStack(const std::string& r, SpanRecorder* rec)
    : root(r), base(std::make_unique<flor::PosixFileSystem>(r)) {
  if (rec != nullptr)
    timing = std::make_unique<TimingFileSystem>(base.get(), rec);
}

Figure MedianFigure(const std::vector<double>& samples,
                    const std::string& unit, double scale) {
  Figure f;
  f.unit = unit;
  flor::Result<double> m = Median(samples);
  if (m.ok()) {
    f.value = *m * scale;
    f.samples = samples.size();
  }
  return f;
}

bool TailFigure(const std::vector<double>& samples, double p,
                const std::string& unit, double scale, Figure* out) {
  flor::Result<double> v = TailPercentile(samples, p);
  if (!v.ok()) return false;
  out->value = *v * scale;
  out->unit = unit;
  out->samples = samples.size();
  return true;
}

uint64_t BytesUnder(const flor::FileSystem* fs, const std::string& prefix) {
  uint64_t total = 0;
  for (const std::string& path : fs->ListPrefix(prefix)) {
    flor::Result<uint64_t> size = fs->FileSize(path);
    if (size.ok()) total += *size;
  }
  return total;
}

int64_t CheckCheckpointsDecode(const flor::FileSystem* fs,
                               const std::string& prefix, Tally* tally) {
  int64_t checked = 0;
  for (const std::string& path : fs->ListPrefix(prefix)) {
    if (!IsCheckpointObject(path)) continue;
    ++checked;
    flor::Result<std::string> bytes = fs->ReadFile(path);
    if (!tally->Check(bytes.status(), "read checkpoint " + path)) continue;
    tally->Check(flor::DecodeCheckpoint(*bytes).status(),
                 "decode checkpoint " + path);
  }
  return checked;
}

void RetimeCodec(const flor::FileSystem* fs, const std::string& prefix,
                 size_t limit, PhaseResult* out) {
  std::vector<double> compress_s, ratio, frame_s, decompress_s, encode_s,
      decode_s;
  for (const std::string& path : fs->ListPrefix(prefix)) {
    if (compress_s.size() >= limit) break;
    if (!IsCheckpointObject(path)) continue;
    flor::Result<std::string> bytes = fs->ReadFile(path);
    if (!bytes.ok()) continue;

    double t0 = Now();
    flor::Result<std::vector<std::string>> frames = flor::ReadFrames(*bytes);
    const double read_frame = Now() - t0;
    if (!frames.ok() || frames->size() != 1) continue;
    t0 = Now();
    flor::Result<std::string> payload = flor::Decompress(frames->front());
    decompress_s.push_back(Now() - t0);
    if (!payload.ok() || payload->empty()) continue;

    t0 = Now();
    const std::string compressed = flor::Compress(*payload, flor::Codec::kLz);
    compress_s.push_back(Now() - t0);
    ratio.push_back(static_cast<double>(compressed.size()) /
                    static_cast<double>(payload->size()));
    std::string framed;
    t0 = Now();
    flor::AppendFrame(&framed, compressed);
    frame_s.push_back(Now() - t0 + read_frame);

    t0 = Now();
    flor::Result<flor::NamedSnapshots> snaps = flor::DecodeCheckpoint(*bytes);
    decode_s.push_back(Now() - t0);
    if (!snaps.ok()) continue;
    t0 = Now();
    const std::string encoded = flor::EncodeCheckpoint(*snaps);
    encode_s.push_back(Now() - t0);
  }
  auto put = [out](const char* name, const std::vector<double>& v) {
    out->layers[name] = MedianFigure(v, "").value;
    out->retimed.push_back(name);
  };
  put("serialize.compress_s", compress_s);
  put("serialize.compress_ratio", ratio);
  put("serialize.frame_crc_s", frame_s);
  put("serialize.decompress_s", decompress_s);
  put("checkpoint.encode_s", encode_s);
  put("checkpoint.decode_s", decode_s);
}

void AddEnvLayers(const std::map<std::string, SpanTotals>& self,
                  const FsCounters& c, double ops, double state_bytes,
                  PhaseResult* out) {
  auto self_of = [&self](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.self_seconds;
  };
  const double per = ops > 0 ? 1.0 / ops : 0;
  out->layers["env.write_s"] = self_of("env.write") * per;
  out->layers["env.write_calls"] = static_cast<double>(c.write_calls) * per;
  out->layers["env.write_bytes_per_state_byte"] =
      state_bytes > 0 ? static_cast<double>(c.write_bytes) / state_bytes : 0;
  out->layers["env.read_s"] = self_of("env.read") * per;
  out->layers["env.read_bytes"] = static_cast<double>(c.read_bytes) * per;
  out->layers["env.list_calls"] = static_cast<double>(c.list_calls) * per;
  out->layers["env.list_s"] = self_of("env.list") * per;
  out->layers["env.delete_calls"] = static_cast<double>(c.delete_calls) * per;
}

ProcStatus ReadProcStatus() {
  ProcStatus st;
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    double value = 0;
    fields >> key >> value;
    if (key == "VmHWM:") st.vm_hwm_mb = value / 1024.0;
    if (key == "VmPeak:") st.vm_peak_mb = value / 1024.0;
    if (key == "Threads:") st.threads = static_cast<int>(value);
  }
  return st;
}

}  // namespace perfbench
