#include "matching/queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

namespace simtmsg::matching {
namespace {

TEST(MatchQueue, PushStampsMonotonicSequence) {
  MessageQueue q;
  for (int i = 0; i < 5; ++i) {
    Message m;
    m.env = {.src = i, .tag = 0, .comm = 0};
    q.push(m);
  }
  for (std::size_t i = 0; i < q.size(); ++i) EXPECT_EQ(q[i].seq, i);
}

TEST(MatchQueue, PushRawPreservesSequence) {
  MessageQueue q;
  Message m;
  m.seq = 42;
  q.push_raw(m);
  EXPECT_EQ(q[0].seq, 42u);
  Message next;
  q.push(next);
  EXPECT_EQ(q[1].seq, 43u);  // Continues after the raw element.
}

TEST(MatchQueue, WindowClampsToSize) {
  RecvQueue q;
  for (int i = 0; i < 3; ++i) q.push(RecvRequest{});
  EXPECT_EQ(q.window(2).size(), 2u);
  EXPECT_EQ(q.window(10).size(), 3u);
  EXPECT_EQ(q.window(0).size(), 0u);
}

TEST(MatchQueue, CompactRemovesFlaggedKeepsOrder) {
  MessageQueue q;
  for (int i = 0; i < 6; ++i) {
    Message m;
    m.payload = static_cast<std::uint64_t>(i);
    q.push(m);
  }
  const std::vector<std::uint8_t> flags = {0, 1, 0, 1, 1, 0};
  EXPECT_EQ(q.compact(flags), 3u);
  ASSERT_EQ(q.size(), 3u);
  EXPECT_EQ(q[0].payload, 0u);
  EXPECT_EQ(q[1].payload, 2u);
  EXPECT_EQ(q[2].payload, 5u);
}

TEST(MatchQueue, CompactWithShortFlagVectorOnlyTouchesPrefix) {
  MessageQueue q;
  for (int i = 0; i < 4; ++i) {
    Message m;
    m.payload = static_cast<std::uint64_t>(i);
    q.push(m);
  }
  const std::vector<std::uint8_t> flags = {1, 1};  // Only first two flagged.
  EXPECT_EQ(q.compact(flags), 2u);
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(q[0].payload, 2u);
}

TEST(MatchQueue, CompactNothingIsNoop) {
  MessageQueue q;
  q.push(Message{});
  const std::vector<std::uint8_t> flags = {0};
  EXPECT_EQ(q.compact(flags), 0u);
  EXPECT_EQ(q.size(), 1u);
}

TEST(MatchQueue, ClearEmpties) {
  RecvQueue q;
  q.push(RecvRequest{});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(MatchQueue, ViewExposesContiguousStorage) {
  MessageQueue q;
  for (int i = 0; i < 3; ++i) q.push(Message{});
  const auto v = q.view();
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(&v[0], &q[0]);
}

// Regression: push_raw of seq == UINT64_MAX used to compute UINT64_MAX + 1
// for the stamping cursor, wrapping it to 0 so the next push re-issued
// sequence numbers already present in the queue (breaking the posted-order
// tiebreak).  The cursor must saturate instead.
TEST(MatchQueue, PushRawSaturatesAtMaxSequence) {
  MessageQueue q;
  Message m;
  m.seq = std::numeric_limits<std::uint64_t>::max();
  q.push_raw(m);
  EXPECT_EQ(q[0].seq, std::numeric_limits<std::uint64_t>::max());
  Message next;
  q.push(next);  // Must not wrap to 0.
  EXPECT_EQ(q[1].seq, std::numeric_limits<std::uint64_t>::max());
}

TEST(MatchQueue, PushNStampsIdenticallyToSequentialPush) {
  MessageQueue a;
  MessageQueue b;
  std::vector<Message> batch(5);
  for (int i = 0; i < 5; ++i) {
    batch[static_cast<std::size_t>(i)].env = {.src = i, .tag = i * 7, .comm = i % 2};
  }
  a.push_n(batch);
  for (const Message& m : batch) b.push(m);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seq, b[i].seq);
    EXPECT_EQ(a.lanes().word[i], b.lanes().word[i]);
  }
}

TEST(MatchQueue, LanesMirrorEnvelopesThroughPushAndCompact) {
  MessageQueue q;
  for (int i = 0; i < 6; ++i) {
    Message m;
    m.env = {.src = 10 + i, .tag = 20 + i, .comm = i % 3};
    q.push(m);
  }
  const std::vector<std::uint8_t> flags = {1, 0, 1, 0, 0, 1};
  q.compact(flags);
  ASSERT_EQ(q.size(), 3u);
  const auto lanes = q.lanes();
  ASSERT_EQ(lanes.src.size(), 3u);
  const std::uint64_t survivors[] = {1, 3, 4};
  for (std::size_t i = 0; i < q.size(); ++i) {
    EXPECT_EQ(q[i].seq, survivors[i]);  // Sequence numbers ride along.
    EXPECT_EQ(lanes.src[i], q[i].env.src);
    EXPECT_EQ(lanes.tag[i], q[i].env.tag);
    EXPECT_EQ(lanes.comm[i], q[i].env.comm);
    EXPECT_EQ(lanes.word[i], scan_word(q[i].env));
  }
}

TEST(MatchQueue, WordLaneEncodesWildcardHalves) {
  RecvQueue q;
  RecvRequest r;
  r.env = {.src = kAnySource, .tag = kAnyTag, .comm = 0};
  q.push(r);
  // Both halves saturate to all-ones: the value the SIMT scan kernels
  // compare wildcard-free windows against never collides with a concrete
  // (src, tag) pair because ranks and tags are non-negative.
  EXPECT_EQ(q.words()[0], ~std::uint64_t{0});
}

}  // namespace
}  // namespace simtmsg::matching
