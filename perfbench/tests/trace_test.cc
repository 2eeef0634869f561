#include "trace.h"

#include <thread>

#include <gtest/gtest.h>

namespace perfbench {
namespace {

Span MakeSpan(int64_t id, int64_t parent, const std::string& name,
              double start, double end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start = start;
  s.end = end;
  return s;
}

TEST(SelfTimes, LeafSpanChargesItsDuration) {
  auto t = SelfTimes({MakeSpan(0, -1, "a", 1.0, 3.5)});
  EXPECT_DOUBLE_EQ(t["a"].self_seconds, 2.5);
  EXPECT_EQ(t["a"].count, 1);
}

TEST(SelfTimes, NestedChildrenAreSubtractedOnceEach) {
  // root [0,10] > mid [1,7] > leaf [2,4]
  auto t = SelfTimes({MakeSpan(0, -1, "root", 0, 10),
                      MakeSpan(1, 0, "mid", 1, 7),
                      MakeSpan(2, 1, "leaf", 2, 4)});
  EXPECT_DOUBLE_EQ(t["root"].self_seconds, 4);  // 10 - 6
  EXPECT_DOUBLE_EQ(t["mid"].self_seconds, 4);   // 6 - 2
  EXPECT_DOUBLE_EQ(t["leaf"].self_seconds, 2);
}

TEST(SelfTimes, OverlappingChildrenCountTheirUnion) {
  // Children [1,4] and [3,6] overlap on [3,4]; union covers 5 of 10.
  auto t = SelfTimes({MakeSpan(0, -1, "p", 0, 10),
                      MakeSpan(1, 0, "c", 1, 4),
                      MakeSpan(2, 0, "c", 3, 6)});
  EXPECT_DOUBLE_EQ(t["p"].self_seconds, 5);
  EXPECT_DOUBLE_EQ(t["c"].self_seconds, 6);
  EXPECT_EQ(t["c"].count, 2);
}

TEST(SelfTimes, ChildrenAreClippedToTheParent) {
  // A child that outlives its parent only covers the shared part; a
  // disjoint second child covers its own interval.
  auto t = SelfTimes({MakeSpan(0, -1, "p", 0, 10),
                      MakeSpan(1, 0, "c", 8, 12),
                      MakeSpan(2, 0, "c", 2, 3)});
  EXPECT_DOUBLE_EQ(t["p"].self_seconds, 7);  // 10 - (2 + 1)
}

TEST(SelfTimes, OpenSpansAreIgnored) {
  auto t = SelfTimes({MakeSpan(0, -1, "p", 0, 10),
                      MakeSpan(1, 0, "c", 2, 0)});
  EXPECT_DOUBLE_EQ(t["p"].self_seconds, 10);
  EXPECT_EQ(t.count("c"), 0u);
}

TEST(SpanRecorder, RecordsParentsAndRequestIds) {
  SpanRecorder rec;
  rec.set_enabled(true);
  {
    RequestScope req(42);
    ScopedSpan outer(&rec, "outer");
    ScopedSpan inner(&rec, "inner");
  }
  ScopedSpan after(&rec, "after");
  const std::vector<Span> spans = rec.Spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[0].request, 42);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].request, 42);
  EXPECT_GE(spans[1].start, spans[0].start);
  EXPECT_LE(spans[1].end, spans[0].end);
  EXPECT_EQ(spans[2].parent, -1);
  EXPECT_EQ(spans[2].request, 0);
}

TEST(SpanRecorder, OtherThreadsOpenRootSpans) {
  SpanRecorder rec;
  rec.set_enabled(true);
  ScopedSpan outer(&rec, "outer");
  std::thread([&rec] { ScopedSpan bg(&rec, "bg"); }).join();
  const std::vector<Span> spans = rec.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].name, "bg");
  EXPECT_EQ(spans[1].parent, -1);
}

TEST(SpanRecorder, DisabledRecorderRecordsNothing) {
  SpanRecorder rec;
  { ScopedSpan s(&rec, "x"); }
  { ScopedSpan s(nullptr, "y"); }
  EXPECT_TRUE(rec.Spans().empty());
}

TEST(Percentiles, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(*Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(*Median({4, 1, 3, 2}), 2.5);
  EXPECT_FALSE(Median({}).ok());
}

TEST(Percentiles, TailNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(MinSamplesForTail(0.9), 100u);
  EXPECT_EQ(MinSamplesForTail(0.99), 1000u);

  std::vector<double> v;
  for (int i = 1; i <= 99; ++i) v.push_back(i);
  EXPECT_FALSE(TailPercentile(v, 0.9).ok());  // only 9 beyond p90
  v.push_back(100);
  auto p90 = TailPercentile(v, 0.9);
  ASSERT_TRUE(p90.ok());
  EXPECT_DOUBLE_EQ(*p90, 90);  // 10 samples (91..100) lie beyond it

  EXPECT_FALSE(TailPercentile(v, 0.99).ok());
  EXPECT_FALSE(TailPercentile(v, 0.5).ok());
}

}  // namespace
}  // namespace perfbench
