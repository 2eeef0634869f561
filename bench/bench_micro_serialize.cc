// Micro benchmarks (google-benchmark) for the serialization substrate:
// tensor encode/decode, compression codecs, checksummed frames, and full
// checkpoint round trips. These are the real-time costs behind the §5.1
// serialization-vs-I/O discussion.

#include <benchmark/benchmark.h>

#include "checkpoint/checkpoint.h"
#include "common/random.h"
#include "exec/log_stream.h"
#include "serialize/compress.h"
#include "serialize/frame.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"

namespace flor {
namespace {

Tensor MakeTensor(int64_t n, bool compressible) {
  Tensor t(Shape{n});
  if (compressible) {
    // Block-constant data: the frozen-parameter pattern.
    float* p = t.f32();
    for (int64_t i = 0; i < n; ++i)
      p[i] = static_cast<float>((i / 64) % 7);
  } else {
    Rng rng(1234);
    ops::RandNormal(&t, &rng);
  }
  return t;
}

void BM_TensorEncode(benchmark::State& state) {
  Tensor t = MakeTensor(state.range(0), false);
  for (auto _ : state) {
    std::string bytes = TensorToBytes(t);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(t.byte_size()));
}
BENCHMARK(BM_TensorEncode)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_TensorDecode(benchmark::State& state) {
  std::string bytes = TensorToBytes(MakeTensor(state.range(0), false));
  for (auto _ : state) {
    auto t = TensorFromBytes(bytes);
    benchmark::DoNotOptimize(t);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_TensorDecode)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

/// Codec payload kinds, the second benchmark argument.
enum PayloadKind : int64_t {
  kGaussian = 0,       ///< dense weights: LZ finds almost no matches
  kBlockConstant = 1,  ///< frozen-parameter pattern
  kMixed = 2,          ///< dense weights next to all-zero optimizer state
};

/// `floats` float32 values of `kind`, encoded as tensor bytes.
std::string MakePayload(int64_t floats, int64_t kind) {
  if (kind != kMixed)
    return TensorToBytes(MakeTensor(floats, kind == kBlockConstant));
  std::string out = TensorToBytes(MakeTensor(floats / 2, false));
  out.append(static_cast<size_t>(floats - floats / 2) * sizeof(float), '\0');
  return out;
}

void BM_CompressLz(benchmark::State& state) {
  std::string payload = MakePayload(state.range(0), state.range(1));
  size_t packed = 0;
  for (auto _ : state) {
    std::string out = Compress(payload, Codec::kLz);
    packed = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
  state.counters["ratio"] =
      static_cast<double>(packed) / static_cast<double>(payload.size());
}
// The 16 MiB (1 << 22 floats) rows are checkpoint-sized.
BENCHMARK(BM_CompressLz)
    ->Args({1 << 14, kGaussian})
    ->Args({1 << 14, kBlockConstant})
    ->Args({1 << 18, kGaussian})
    ->Args({1 << 18, kBlockConstant})
    ->Args({1 << 22, kGaussian})
    ->Args({1 << 22, kMixed});

void BM_DecompressLz(benchmark::State& state) {
  const std::string payload = MakePayload(state.range(0), state.range(1));
  const std::string packed = Compress(payload, Codec::kLz);
  for (auto _ : state) {
    auto out = Decompress(packed);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_DecompressLz)->Args({1 << 22, kMixed});

void BM_FrameRoundTrip(benchmark::State& state) {
  std::string payload = TensorToBytes(MakeTensor(state.range(0), false));
  for (auto _ : state) {
    std::string framed;
    AppendFrame(&framed, payload);
    FrameReader reader(framed);
    std::string out;
    benchmark::DoNotOptimize(reader.Next(&out));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_FrameRoundTrip)->Arg(1 << 14)->Arg(1 << 18);

void BM_CheckpointEncodeDecode(benchmark::State& state) {
  NamedSnapshots snaps;
  for (int i = 0; i < 4; ++i) {
    snaps.emplace_back(
        "t" + std::to_string(i),
        ir::SnapshotValue(ir::Value::FromTensor(
            MakeTensor(state.range(0), i % 2 == 0))));
  }
  for (auto _ : state) {
    std::string bytes = EncodeCheckpoint(snaps);
    auto decoded = DecodeCheckpoint(bytes);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_CheckpointEncodeDecode)->Arg(1 << 12)->Arg(1 << 16);

/// A record-run-shaped log stream: per-batch loss lines plus per-epoch
/// metrics, contexts like "e=17/i=3", occasional escapes in the text.
exec::LogStream MakeLogStream(int64_t entries) {
  exec::LogStream stream;
  stream.Reserve(static_cast<size_t>(entries));
  for (int64_t i = 0; i < entries; ++i) {
    exec::LogEntry& e = stream.AppendEntry();
    e.stmt_uid = static_cast<int32_t>(7 + i % 5);
    e.context = "e=" + std::to_string(i / 8) + "/i=" + std::to_string(i % 8);
    e.label = i % 9 == 0 ? "test_acc" : "loss";
    e.text = "0." + std::to_string(1000000 + i % 899999);
    if (i % 31 == 0) e.text += "\tnote\nwrapped";
  }
  return stream;
}

void BM_LogStreamSerialize(benchmark::State& state) {
  const exec::LogStream stream = MakeLogStream(state.range(0));
  size_t bytes = 0;
  for (auto _ : state) {
    std::string out = stream.Serialize();
    bytes = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_LogStreamSerialize)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

/// The pre-optimization shape: escape each field into a temporary, build
/// each line with string concatenation, append to the output. Kept as the
/// comparison arm for the single-allocation Serialize above (exec_test
/// pins the two byte-identical; this pins the speedup visible).
void BM_LogStreamSerializeNaive(benchmark::State& state) {
  const exec::LogStream stream = MakeLogStream(state.range(0));
  auto escape = [](const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      switch (c) {
        case '\t': out += "\\t"; break;
        case '\n': out += "\\n"; break;
        case '\\': out += "\\\\"; break;
        default: out += c;
      }
    }
    return out;
  };
  size_t bytes = 0;
  for (auto _ : state) {
    std::string out;
    for (const auto& e : stream.entries()) {
      out += std::to_string(e.stmt_uid) + "\t" + escape(e.context) + "\t" +
             (e.init_mode ? "1" : "0") + "\t" + escape(e.label) + "\t" +
             escape(e.text) + "\n";
    }
    bytes = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_LogStreamSerializeNaive)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 17);

}  // namespace
}  // namespace flor
