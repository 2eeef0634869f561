// Unit + property tests: coding primitives, compression codecs, frames,
// sectioned messages.

#include <gtest/gtest.h>

#include <cstring>

#include "common/crc32.h"
#include "common/random.h"
#include "env/filesystem.h"
#include "serialize/coding.h"
#include "serialize/compress.h"
#include "serialize/frame.h"
#include "serialize/sections.h"
#include "test_util.h"

namespace flor {
namespace {

TEST(Coding, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeef);
  PutFixed64(&buf, 0x0123456789abcdefULL);
  Decoder dec(buf);
  uint32_t a;
  uint64_t b;
  ASSERT_TRUE(dec.GetFixed32(&a).ok());
  ASSERT_TRUE(dec.GetFixed64(&b).ok());
  EXPECT_EQ(a, 0xdeadbeefu);
  EXPECT_EQ(b, 0x0123456789abcdefULL);
  EXPECT_TRUE(dec.done());
}

TEST(Coding, VarintRoundTripBoundaries) {
  std::string buf;
  const uint64_t values[] = {0, 1, 127, 128, 16383, 16384,
                             UINT32_MAX, UINT64_MAX};
  for (uint64_t v : values) PutVarint64(&buf, v);
  Decoder dec(buf);
  for (uint64_t v : values) {
    uint64_t out;
    ASSERT_TRUE(dec.GetVarint64(&out).ok());
    EXPECT_EQ(out, v);
  }
  EXPECT_TRUE(dec.done());
}

TEST(Coding, SignedVarintZigzag) {
  std::string buf;
  const int64_t values[] = {0, -1, 1, -64, 63, INT64_MIN, INT64_MAX};
  for (int64_t v : values) PutSignedVarint64(&buf, v);
  Decoder dec(buf);
  for (int64_t v : values) {
    int64_t out;
    ASSERT_TRUE(dec.GetSignedVarint64(&out).ok());
    EXPECT_EQ(out, v);
  }
}

TEST(Coding, FloatsBitExact) {
  std::string buf;
  PutFloat(&buf, 3.14159f);
  PutDouble(&buf, -2.718281828459045);
  Decoder dec(buf);
  float f;
  double d;
  ASSERT_TRUE(dec.GetFloat(&f).ok());
  ASSERT_TRUE(dec.GetDouble(&d).ok());
  EXPECT_EQ(f, 3.14159f);
  EXPECT_EQ(d, -2.718281828459045);
}

TEST(Coding, LengthPrefixed) {
  std::string buf;
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string("bin\0ary", 7));
  Decoder dec(buf);
  std::string a, b;
  ASSERT_TRUE(dec.GetLengthPrefixed(&a).ok());
  ASSERT_TRUE(dec.GetLengthPrefixed(&b).ok());
  EXPECT_EQ(a, "");
  EXPECT_EQ(b, std::string("bin\0ary", 7));
}

TEST(Coding, UnderflowDetected) {
  std::string buf;
  PutFixed32(&buf, 7);
  Decoder dec(buf);
  uint64_t v64;
  EXPECT_TRUE(dec.GetFixed64(&v64).IsCorruption());
  uint32_t v32;
  EXPECT_TRUE(dec.GetFixed32(&v32).ok());  // cursor unchanged on failure
}

TEST(Coding, TruncatedVarintDetected) {
  std::string buf;
  buf.push_back(static_cast<char>(0x80));  // continuation with no next byte
  Decoder dec(buf);
  uint64_t v;
  EXPECT_TRUE(dec.GetVarint64(&v).IsCorruption());
}

TEST(Coding, TruncatedStringDetected) {
  std::string buf;
  PutVarint64(&buf, 100);  // claims 100 bytes, provides none
  Decoder dec(buf);
  std::string s;
  EXPECT_TRUE(dec.GetLengthPrefixed(&s).IsCorruption());
}

TEST(Coding, RandomRoundTripProperty) {
  Rng rng = testutil::SeededRng(1);
  for (int trial = 0; trial < 2000; ++trial) {
    // Bias the magnitude so every varint width (1..10 bytes) gets coverage.
    const int bits = 1 + static_cast<int>(rng.Uniform(64));
    const uint64_t v64 = rng.Next() >> (64 - bits);
    const uint32_t v32 = static_cast<uint32_t>(v64);
    const int64_t s64 = static_cast<int64_t>(rng.Next());
    std::string buf;
    PutVarint64(&buf, v64);
    PutVarint32(&buf, v32);
    PutSignedVarint64(&buf, s64);
    PutFixed32(&buf, v32);
    PutFixed64(&buf, v64);
    Decoder dec(buf);
    uint64_t got64 = 0, gotf64 = 0;
    uint32_t got32 = 0, gotf32 = 0;
    int64_t gots64 = 0;
    ASSERT_TRUE(dec.GetVarint64(&got64).ok());
    ASSERT_TRUE(dec.GetVarint32(&got32).ok());
    ASSERT_TRUE(dec.GetSignedVarint64(&gots64).ok());
    ASSERT_TRUE(dec.GetFixed32(&gotf32).ok());
    ASSERT_TRUE(dec.GetFixed64(&gotf64).ok());
    EXPECT_EQ(got64, v64);
    EXPECT_EQ(got32, v32);
    EXPECT_EQ(gots64, s64);
    EXPECT_EQ(gotf32, v32);
    EXPECT_EQ(gotf64, v64);
    EXPECT_TRUE(dec.done());
  }
}

TEST(Coding, EveryStrictPrefixFailsToFullyDecode) {
  // One buffer holding every primitive; decoding any strict prefix must
  // fail at some field (no crash, no bogus full parse).
  std::string buf;
  PutVarint64(&buf, 0x8f00ff00ff00ffULL);
  PutVarint32(&buf, 0xdeadbeefu);
  PutSignedVarint64(&buf, -123456789);
  PutFixed32(&buf, 0x01020304u);
  PutFixed64(&buf, 0x05060708090a0b0cULL);
  PutFloat(&buf, 1.5f);
  PutDouble(&buf, -2.5);
  PutLengthPrefixed(&buf, "payload");
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    Decoder dec(buf.data(), cut);
    uint64_t v64, f64;
    uint32_t v32, f32;
    int64_t s64;
    float f;
    double d;
    std::string s;
    const bool all_ok =
        dec.GetVarint64(&v64).ok() && dec.GetVarint32(&v32).ok() &&
        dec.GetSignedVarint64(&s64).ok() && dec.GetFixed32(&f32).ok() &&
        dec.GetFixed64(&f64).ok() && dec.GetFloat(&f).ok() &&
        dec.GetDouble(&d).ok() && dec.GetLengthPrefixed(&s).ok();
    EXPECT_FALSE(all_ok) << "cut=" << cut;
  }
}

std::string RandomBytes(size_t n, uint64_t salt) {
  Rng rng = testutil::SeededRng(salt);
  std::string out(n, 0);
  for (auto& c : out) c = static_cast<char>(rng.Uniform(256));
  return out;
}

std::string CompressibleBytes(size_t n, uint64_t salt) {
  Rng rng = testutil::SeededRng(salt);
  std::string out;
  while (out.size() < n) {
    const char c = static_cast<char>(rng.Uniform(4));
    out.append(16 + rng.Uniform(64), c);
  }
  out.resize(n);
  return out;
}

class CompressRoundTrip
    : public ::testing::TestWithParam<std::tuple<Codec, size_t, bool>> {};

TEST_P(CompressRoundTrip, Lossless) {
  auto [codec, size, compressible] = GetParam();
  const std::string input = compressible ? CompressibleBytes(size, size)
                                         : RandomBytes(size, size);
  std::string packed = Compress(input, codec);
  auto out = Decompress(packed);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, input);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsAndSizes, CompressRoundTrip,
    ::testing::Combine(::testing::Values(Codec::kNone, Codec::kLz),
                       ::testing::Values(size_t{0}, size_t{1}, size_t{7},
                                         size_t{255}, size_t{4096},
                                         size_t{1} << 17),
                       ::testing::Bool()));

TEST(Compress, CompressibleShrinks) {
  const std::string input = CompressibleBytes(1 << 16, 3);
  EXPECT_LT(Compress(input, Codec::kLz).size(), input.size() / 2);
}

TEST(Compress, IncompressibleFallsBackToRaw) {
  const std::string input = RandomBytes(1 << 14, 5);
  std::string packed = Compress(input, Codec::kLz);
  // Stored raw, never inflated.
  EXPECT_EQ(static_cast<Codec>(packed[0]), Codec::kNone);
  EXPECT_LE(packed.size(), input.size() + 16);
}

/// `floats` Gaussian float32 values: dense weights, where LZ finds almost
/// no matches.
std::string GaussianFloatBytes(size_t floats, uint64_t salt) {
  Rng rng = testutil::SeededRng(salt);
  std::string out(floats * sizeof(float), 0);
  for (size_t i = 0; i < floats; ++i) {
    const float f = static_cast<float>(rng.NextGaussian());
    std::memcpy(&out[i * sizeof(float)], &f, sizeof(float));
  }
  return out;
}

std::string FromHex(const std::string& hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2)
    out.push_back(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  return out;
}

TEST(Compress, MixedDenseAndZeroRegionsCompressPerRegion) {
  // Dense weights first, so the encoder reaches the zeros with its stride
  // already widened by the miss streak; the zero block must still compress.
  const std::string input =
      GaussianFloatBytes(size_t{1} << 16, 11) + std::string(1 << 18, '\0');
  const std::string packed = Compress(input, Codec::kLz);
  EXPECT_EQ(static_cast<Codec>(packed[0]), Codec::kLz);
  EXPECT_LT(static_cast<double>(packed.size()) /
                static_cast<double>(input.size()),
            0.6);
  auto out = Decompress(packed);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, input);
}

TEST(Compress, DenseGaussianFallsBackToRaw) {
  const std::string input = GaussianFloatBytes(size_t{1} << 20, 12);  // 4 MiB
  const std::string packed = Compress(input, Codec::kLz);
  EXPECT_EQ(static_cast<Codec>(packed[0]), Codec::kNone);
  EXPECT_LE(packed.size(), input.size() + 16);
  auto out = Decompress(packed);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, input);
}

TEST(Compress, EarlierEncoderBlobStillDecodes) {
  // Encoded by the LZ encoder before miss-streak skipping and the ring
  // chain table: blobs already on disk must stay readable, and this input
  // (no miss streak) still encodes to the same bytes.
  const std::string input =
      "flor flor flor: hindsight logging, hindsight logging for model "
      "training!" +
      std::string(40, '\0') + "abcabcabcabcabc";
  const std::string golden = FromHex(
      "027f20666c6f72200400053a200068696e64736967680074206c6f6767696e04672c"
      "12000e20666f7220006d6f64656c2074720061696e696e6721001100002361626302"
      "0008");
  auto out = Decompress(golden);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, input);
  EXPECT_EQ(Compress(input, Codec::kLz), golden);
}

TEST(Compress, RunHeavyEncodingIsPinned) {
  // Run-heavy data never builds a 64-miss streak, so the skip never fires
  // and the encoding equals the earlier encoder's, pinned by size and
  // CRC32C at the default test seed.
  if (testutil::TestSeed() != 42) GTEST_SKIP() << "pinned at seed 42";
  const std::string packed =
      Compress(CompressibleBytes(1 << 16, 3), Codec::kLz);
  EXPECT_EQ(packed.size(), 6007u);
  EXPECT_EQ(Crc32c(packed.data(), packed.size()), 0x29ae5a39u);
}

TEST(Compress, TornBlobsAreCorruptionNotCrashes) {
  const std::string input =
      CompressibleBytes(4096, 13) + GaussianFloatBytes(256, 14);
  const std::string packed = Compress(input, Codec::kLz);
  for (size_t cut = 0; cut < packed.size(); ++cut) {
    EXPECT_FALSE(Decompress(packed.substr(0, cut)).ok()) << "cut=" << cut;
  }
  Rng rng = testutil::SeededRng(15);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string torn = packed;
    torn[rng.Uniform(torn.size())] ^= static_cast<char>(1 + rng.Uniform(255));
    auto out = Decompress(torn);  // ok or Corruption; never a crash
    if (!out.ok()) {
      EXPECT_TRUE(out.status().IsCorruption());
    }
  }
  // A header claiming far more output than the body can encode is
  // rejected before anything is allocated.
  std::string huge;
  huge.push_back(static_cast<char>(Codec::kLz));
  PutVarint64(&huge, uint64_t{1} << 60);
  huge.push_back('\0');
  huge.append("abcdefgh");
  EXPECT_TRUE(Decompress(huge).status().IsCorruption());
}

TEST(Compress, MalformedInputRejected) {
  EXPECT_TRUE(Decompress("").status().IsCorruption());
  std::string bogus;
  bogus.push_back(9);  // unknown codec byte
  EXPECT_TRUE(Decompress(bogus).status().IsCorruption());
  // Unknown tags stay Corruption behind a well-formed size header and
  // body, including the retired run-length tag 1.
  for (char tag : {char{1}, char{9}}) {
    std::string blob;
    blob.push_back(tag);
    PutVarint64(&blob, 4);
    blob.append("abcd");
    EXPECT_TRUE(Decompress(blob).status().IsCorruption()) << int{tag};
  }
}

TEST(Compress, SizeMismatchDetected) {
  std::string packed = Compress("hello world, hello world", Codec::kLz);
  packed.pop_back();  // truncate body
  EXPECT_FALSE(Decompress(packed).ok());
}

TEST(Frame, RoundTripMultiple) {
  std::string file;
  AppendFrame(&file, "first");
  AppendFrame(&file, "");
  AppendFrame(&file, RandomBytes(1000, 1));
  auto frames = ReadFrames(file);
  ASSERT_TRUE(frames.ok());
  ASSERT_EQ(frames->size(), 3u);
  EXPECT_EQ((*frames)[0], "first");
  EXPECT_EQ((*frames)[1], "");
}

TEST(Frame, EveryByteCorruptionDetected) {
  std::string file;
  AppendFrame(&file, "checkpoint payload bytes");
  for (size_t i = 0; i < file.size(); ++i) {
    std::string corrupted = file;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x01);
    auto frames = ReadFrames(corrupted);
    EXPECT_FALSE(frames.ok()) << "corruption at byte " << i << " undetected";
  }
}

TEST(Frame, ReaderReportsEofAsNotFound) {
  std::string file;
  AppendFrame(&file, "x");
  FrameReader reader(file);
  std::string payload;
  ASSERT_TRUE(reader.Next(&payload).ok());
  EXPECT_TRUE(reader.Next(&payload).IsNotFound());
}

// ---------------------------------------------- worker result sections ---
// A fork-runner worker's result file is one "florres1" sectioned message.

constexpr char kResultTag[] = "florres1";

TEST(ResultFile, RoundTripsArbitrarySections) {
  // Sections carry raw bytes: embedded NULs, tabs, newlines, emptiness.
  const std::vector<std::string> sections = {
      "plain", std::string("\0binary\0", 8), "tab\there\nand newline", ""};
  const std::string encoded = EncodeSections(kResultTag, sections);
  auto decoded = DecodeSections(kResultTag, encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, sections);

  // Zero sections is a valid (if empty) result.
  auto none = DecodeSections(kResultTag, EncodeSections(kResultTag, {}));
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(ResultFile, EveryTruncationAndHeaderLieIsCorruption) {
  const std::string encoded =
      EncodeSections(kResultTag, {"alpha", "beta", "gamma"});
  // Every strict prefix fails — including the empty file and cuts at
  // exact frame boundaries (the header's section count catches those).
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    auto got = DecodeSections(kResultTag, encoded.substr(0, cut));
    ASSERT_FALSE(got.ok()) << "prefix of " << cut << " bytes parsed";
    EXPECT_TRUE(got.status().IsCorruption()) << "cut " << cut;
  }
  // Appending a stray well-formed frame is also a count mismatch.
  std::string extra = encoded;
  AppendFrame(&extra, "stray");
  EXPECT_TRUE(DecodeSections(kResultTag, extra).status().IsCorruption());
  // A frame stream without the florres header is rejected.
  std::string headerless;
  AppendFrame(&headerless, "not a header");
  EXPECT_TRUE(
      DecodeSections(kResultTag, headerless).status().IsCorruption());
}

TEST(ResultFile, SingleByteMutationsNeverParse) {
  const std::string encoded = EncodeSections(kResultTag, {"alpha", "beta"});
  for (size_t pos = 0; pos < encoded.size(); ++pos) {
    std::string mutated = encoded;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x20);
    auto got = DecodeSections(kResultTag, mutated);
    ASSERT_FALSE(got.ok()) << "mutation at " << pos << " parsed";
    EXPECT_TRUE(got.status().IsCorruption()) << "mutation at " << pos;
  }
}

TEST(ResultFile, WriteReadThroughFilesystem) {
  MemFileSystem fs;
  ASSERT_TRUE(
      fs.WriteFile("res/worker-0.res", EncodeSections(kResultTag, {"a", "b"}))
          .ok());
  auto read = [&fs](const std::string& path)
      -> Result<std::vector<std::string>> {
    FLOR_ASSIGN_OR_RETURN(std::string data, fs.ReadFile(path));
    return DecodeSections(kResultTag, data);
  };
  auto got = read("res/worker-0.res");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (std::vector<std::string>{"a", "b"}));
  // Absent file: NotFound (the "worker never committed" signal), not
  // Corruption.
  auto missing = read("res/worker-1.res");
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound());
  // A flipped byte on disk: Corruption.
  ASSERT_TRUE(fs.CorruptByte("res/worker-0.res", 6).ok());
  EXPECT_TRUE(read("res/worker-0.res").status().IsCorruption());
}

// ----------------------------------------------------------- sections ---

TEST(Sections, HeaderBytesArePinned) {
  // Frame 0 payload is "<tag>\t<n>"; wire tags carry the message kind.
  for (const char* tag : {"florres1", "florwir1\treq"}) {
    auto frames = ReadFrames(EncodeSections(tag, {"x", "y"}));
    ASSERT_TRUE(frames.ok());
    ASSERT_EQ(frames->size(), 3u);
    EXPECT_EQ((*frames)[0], std::string(tag) + "\t2");
  }
  // A message of another tag — even one sharing a prefix — is Corruption.
  const std::string request = EncodeSections("florwir1\treq", {"x"});
  EXPECT_TRUE(
      DecodeSections("florwir1\tres", request).status().IsCorruption());
  EXPECT_TRUE(DecodeSections("florwir1", request).status().IsCorruption());
}

TEST(Sections, MetaBlockRoundTripsBitExact) {
  struct Counts {
    int64_t a = 0;
    int64_t b = 0;
  };
  static constexpr CounterField<Counts> kCountFields[] = {
      {"a", &Counts::a}, {"b", &Counts::b}};
  const Counts counts{-3, 1ll << 40};
  const std::string block = MetaWriter()
                                .Str("name", "tab\tinside")
                                .Int("n", -42)
                                .Double("x", 0.1)
                                .Bool("flag", true)
                                .Counters(counts, kCountFields)
                                .Finish();
  EXPECT_EQ(block,
            "name\ttab\tinside\nn\t-42\nx\t0x1.999999999999ap-4\n"
            "flag\t1\na\t-3\nb\t1099511627776\n");
  MetaReader meta(block, "test");
  EXPECT_EQ(*meta.Str("name"), "tab\tinside");
  EXPECT_EQ(*meta.Int("n"), -42);
  EXPECT_EQ(*meta.Double("x"), 0.1);
  EXPECT_TRUE(*meta.Bool("flag"));
  Counts back;
  ASSERT_TRUE(meta.Counters(&back, kCountFields).ok());
  EXPECT_EQ(back.a, counts.a);
  EXPECT_EQ(back.b, counts.b);
  EXPECT_TRUE(meta.Finish().ok());

  // Unparseable values and an unterminated last line are Corruption.
  EXPECT_TRUE(MetaReader("n\tx\n", "t").Int("n").status().IsCorruption());
  EXPECT_TRUE(MetaReader("x\t?\n", "t").Double("x").status().IsCorruption());
  EXPECT_TRUE(MetaReader("f\t2\n", "t").Bool("f").status().IsCorruption());
  EXPECT_TRUE(MetaReader("n\t1", "t").Int("n").status().IsCorruption());
}

TEST(Sections, StatusRoundTripsAndRejectsUnknownCodes) {
  std::vector<std::string> sections;
  AppendStatusSections(Status::NotFound("no such run"), &sections);
  ASSERT_EQ(sections.size(), 2u);
  EXPECT_EQ(sections[0], "code\t2\n");
  Status back;
  ASSERT_TRUE(ReadStatusSections(sections, &back).ok());
  EXPECT_EQ(back, Status::NotFound("no such run"));

  sections[0] = "code\t99\n";
  EXPECT_TRUE(ReadStatusSections(sections, &back).IsCorruption());
  EXPECT_TRUE(ReadStatusSections({"code\t0\n"}, &back).IsCorruption());
}

}  // namespace
}  // namespace flor
