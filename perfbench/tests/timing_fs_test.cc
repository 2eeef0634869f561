#include "timing_fs.h"

#include <filesystem>

#include <gtest/gtest.h>

namespace perfbench {
namespace {

std::string BinaryPayload() {
  std::string data;
  for (int i = 0; i < 70000; ++i)
    data.push_back(static_cast<char>((i * 131) & 0xff));
  data[5] = '\0';
  return data;
}

void ExpectPassThrough(flor::FileSystem* base) {
  SpanRecorder rec;
  rec.set_enabled(true);
  TimingFileSystem fs(base, &rec);
  const std::string data = BinaryPayload();

  ASSERT_TRUE(fs.WriteFile("a/b/obj", data).ok());
  ASSERT_TRUE(fs.AppendFile("a/b/log", "x\n").ok());
  ASSERT_TRUE(fs.AppendFile("a/b/log", std::string("y\0z", 3)).ok());

  // The wrapper reads back exactly what the base holds, and the base holds
  // exactly what was written through the wrapper.
  auto via_wrapper = fs.ReadFile("a/b/obj");
  auto via_base = base->ReadFile("a/b/obj");
  ASSERT_TRUE(via_wrapper.ok());
  ASSERT_TRUE(via_base.ok());
  EXPECT_EQ(*via_wrapper, data);
  EXPECT_EQ(*via_base, data);
  EXPECT_EQ(*fs.ReadFile("a/b/log"), std::string("x\ny\0z", 5));

  EXPECT_TRUE(fs.Exists("a/b/obj"));
  EXPECT_EQ(*fs.FileSize("a/b/obj"), data.size());
  EXPECT_EQ(fs.ListPrefix("a/"), base->ListPrefix("a/"));
  EXPECT_FALSE(fs.ReadFile("a/missing").ok());
  ASSERT_TRUE(fs.DeleteFile("a/b/log").ok());
  EXPECT_FALSE(base->Exists("a/b/log"));

  const FsCounters c = fs.counters();
  EXPECT_EQ(c.write_calls, 3);
  EXPECT_EQ(c.write_bytes, static_cast<int64_t>(data.size() + 2 + 3));
  EXPECT_EQ(c.read_calls, 3);
  EXPECT_EQ(c.read_bytes, static_cast<int64_t>(data.size() + 5));
  EXPECT_EQ(c.list_calls, 1);
  EXPECT_EQ(c.delete_calls, 1);

  const auto totals = SelfTimes(rec.Spans());
  EXPECT_EQ(totals.at("env.write").count, 3);
  EXPECT_EQ(totals.at("env.read").count, 3);
  EXPECT_EQ(totals.at("env.list").count, 1);
  EXPECT_EQ(totals.at("env.delete").count, 1);
}

TEST(TimingFileSystem, MemPassThroughIsByteIdentical) {
  flor::MemFileSystem base;
  ExpectPassThrough(&base);
}

TEST(TimingFileSystem, PosixPassThroughIsByteIdentical) {
  const std::string root = "timing_fs_test_root";
  std::filesystem::remove_all(root);
  {
    flor::PosixFileSystem base(root);
    ExpectPassThrough(&base);
  }
  std::filesystem::remove_all(root);
}

TEST(TimingFileSystem, CountsNothingWhileRecordingIsOff) {
  flor::MemFileSystem base;
  SpanRecorder rec;
  TimingFileSystem fs(&base, &rec);
  ASSERT_TRUE(fs.WriteFile("k", "v").ok());
  EXPECT_EQ(*base.ReadFile("k"), "v");
  EXPECT_EQ(fs.counters().write_calls, 0);
  EXPECT_TRUE(rec.Spans().empty());
}

}  // namespace
}  // namespace perfbench
