// Matching-layer stream semantics (docs/streams.md): per-stream sequence
// cursors in the queues, (comm, stream) bucketing in the engine, and
// bit-identity of batched multi-stream ingestion against per-message
// pushes.  The runtime-level ordering wall lives in
// tests/runtime/stream_test.cpp.
#include <gtest/gtest.h>

#include <vector>

#include "matching/engine.hpp"
#include "matching/queue.hpp"

namespace simtmsg::matching {
namespace {

const simt::DeviceSpec& pascal() { return simt::pascal_gtx1080(); }

Message msg(Rank src, Tag tag, CommId comm, StreamId stream, std::uint64_t payload) {
  Message m;
  m.env = {.src = src, .tag = tag, .comm = comm, .stream = stream};
  m.payload = payload;
  return m;
}

RecvRequest req(Rank src, Tag tag, CommId comm, StreamId stream) {
  RecvRequest r;
  r.env = {.src = src, .tag = tag, .comm = comm, .stream = stream};
  return r;
}

TEST(StreamQueue, EachStreamOwnsAnIndependentSequenceCursor) {
  MessageQueue q;
  // Interleave three ordering domains; each must count from 0 on its own.
  q.push(msg(0, 0, 0, /*stream=*/0, 1));
  q.push(msg(0, 1, 0, /*stream=*/7, 2));
  q.push(msg(0, 2, 0, /*stream=*/0, 3));
  q.push(msg(0, 3, 0, /*stream=*/7, 4));
  q.push(msg(0, 4, 0, /*stream=*/3, 5));
  q.push(msg(0, 5, 0, /*stream=*/7, 6));

  const auto lanes = q.lanes();
  ASSERT_EQ(q.size(), 6u);
  EXPECT_EQ(q[0].seq, 0u);  // Stream 0: 0, 1.
  EXPECT_EQ(q[2].seq, 1u);
  EXPECT_EQ(q[1].seq, 0u);  // Stream 7: 0, 1, 2.
  EXPECT_EQ(q[3].seq, 1u);
  EXPECT_EQ(q[5].seq, 2u);
  EXPECT_EQ(q[4].seq, 0u);  // Stream 3: 0.
  EXPECT_EQ(std::vector<StreamId>(lanes.stream.begin(), lanes.stream.end()),
            (std::vector<StreamId>{0, 7, 0, 7, 3, 7}));
}

TEST(StreamQueue, RawPushAdvancesOnlyItsOwnStreamCursor) {
  MessageQueue q;
  Message high = msg(0, 0, 0, /*stream=*/2, 0);
  high.seq = 500;
  q.push_raw(high);
  // Stream 2's cursor continues past the raw sequence...
  q.push(msg(0, 1, 0, /*stream=*/2, 0));
  // ...while stream 0's cursor is untouched.
  q.push(msg(0, 2, 0, /*stream=*/0, 0));

  EXPECT_EQ(q[0].seq, 500u);
  EXPECT_EQ(q[1].seq, 501u);
  EXPECT_EQ(q[2].seq, 0u);
}

TEST(StreamQueue, CompactPreservesStreamLaneAlignment) {
  MessageQueue q;
  q.push(msg(0, 0, 0, 1, 10));
  q.push(msg(0, 1, 0, 2, 11));
  q.push(msg(0, 2, 0, 3, 12));
  const std::vector<std::uint8_t> matched = {0, 1, 0};  // Drop the middle one.
  EXPECT_EQ(q.compact(matched), 1u);

  const auto lanes = q.lanes();
  ASSERT_EQ(q.size(), 2u);
  EXPECT_EQ(lanes.stream[0], 1);
  EXPECT_EQ(lanes.stream[1], 3);
  EXPECT_EQ(q[0].env.stream, 1);
  EXPECT_EQ(q[1].env.stream, 3);
  EXPECT_EQ(q[1].seq, 0u);  // Stream 3's first stamp survives compaction.
}

TEST(StreamMatching, StreamJoinsTheMatchTuple) {
  // Same (src, tag, comm) on two different streams: a receive matches only
  // the message of its own ordering domain — there is no stream wildcard.
  const MatchEngine engine(pascal(), SemanticsConfig::compliant());
  const std::vector<Message> msgs = {msg(0, 5, 0, /*stream=*/1, 111)};
  {
    const std::vector<RecvRequest> reqs = {req(0, 5, 0, /*stream=*/2)};
    const auto s = engine.match(msgs, reqs);
    EXPECT_EQ(s.result.matched(), 0u);
  }
  {
    const std::vector<RecvRequest> reqs = {req(0, 5, 0, /*stream=*/1)};
    const auto s = engine.match(msgs, reqs);
    ASSERT_EQ(s.result.request_match.size(), 1u);
    EXPECT_EQ(s.result.request_match[0], 0);
  }
}

TEST(StreamMatching, EngineBucketsByCommAndStream) {
  // Identical envelopes across two comms x two streams: every request must
  // land on the message of its exact (comm, stream) bucket.
  const MatchEngine engine(pascal(), SemanticsConfig::compliant());
  std::vector<Message> msgs;
  std::vector<RecvRequest> reqs;
  for (const CommId comm : {0, 9}) {
    for (const StreamId stream : {0, 4}) {
      msgs.push_back(msg(1, 2, comm, stream,
                         static_cast<std::uint64_t>(comm * 100 + stream)));
      reqs.push_back(req(1, 2, comm, stream));
    }
  }
  const auto s = engine.match(msgs, reqs);
  ASSERT_EQ(s.result.request_match.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(s.result.request_match[i], static_cast<std::int32_t>(i)) << i;
  }
}

TEST(StreamMatching, PostedOrderTiebreakHoldsWithinAStream) {
  // Two identical envelopes on one stream: the first-posted receive takes
  // the first-arrived message (the MPI non-overtaking rule, per stream).
  const MatchEngine engine(pascal(), SemanticsConfig::compliant());
  const std::vector<Message> msgs = {msg(2, 3, 0, /*stream=*/5, 1000),
                                     msg(2, 3, 0, /*stream=*/5, 1001)};
  const std::vector<RecvRequest> reqs = {req(2, 3, 0, /*stream=*/5),
                                         req(2, 3, 0, /*stream=*/5)};
  const auto s = engine.match(msgs, reqs);
  ASSERT_EQ(s.result.request_match.size(), 2u);
  EXPECT_EQ(s.result.request_match[0], 0);
  EXPECT_EQ(s.result.request_match[1], 1);
}

TEST(StreamMatching, InterleavedBatchIngestionIsBitIdenticalToPerMessage) {
  // match_batch over an interleaved multi-stream batch must produce the
  // same lanes, the same sequence stamps, and the same match result as
  // ingesting the same arrivals one element at a time.
  std::vector<Message> arrivals;
  std::vector<RecvRequest> posts;
  for (int i = 0; i < 48; ++i) {
    const StreamId stream = i % 5;  // Streams 0..4 interleaved.
    arrivals.push_back(msg(i % 3, i, 0, stream, 0xABC0 + static_cast<std::uint64_t>(i)));
    posts.push_back(req(i % 3, i, 0, stream));
  }

  const MatchEngine engine(pascal(), SemanticsConfig::compliant());

  MessageQueue mq_batch;
  RecvQueue rq_batch;
  SimtMatchStats batch_stats;
  engine.match_batch(arrivals, posts, mq_batch, rq_batch, batch_stats);

  MessageQueue mq_single;
  RecvQueue rq_single;
  for (const Message& m : arrivals) mq_single.push(m);
  for (const RecvRequest& r : posts) rq_single.push(r);
  SimtMatchStats single_stats;
  engine.match_queues(mq_single, rq_single, single_stats);

  EXPECT_EQ(batch_stats.result.request_match, single_stats.result.request_match);
  EXPECT_EQ(batch_stats.result.matched(), arrivals.size());
  // Both queues drained identically (fully matching workload).
  EXPECT_EQ(mq_batch.size(), mq_single.size());
  EXPECT_EQ(rq_batch.size(), rq_single.size());
}

TEST(StreamMatching, BatchLanesMatchPerMessageLanes) {
  // The ingestion half of the bit-identity claim, checked lane by lane
  // (no matching pass: raw stamping equivalence).
  std::vector<Message> arrivals;
  for (int i = 0; i < 32; ++i) {
    arrivals.push_back(msg(i % 4, i, i % 2, /*stream=*/i % 3, 0));
  }
  MessageQueue batched;
  batched.push_n(arrivals);
  MessageQueue single;
  for (const Message& m : arrivals) single.push(m);

  const auto a = batched.lanes();
  const auto b = single.lanes();
  ASSERT_EQ(batched.size(), single.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(a.src[i], b.src[i]) << i;
    EXPECT_EQ(a.tag[i], b.tag[i]) << i;
    EXPECT_EQ(a.comm[i], b.comm[i]) << i;
    EXPECT_EQ(a.stream[i], b.stream[i]) << i;
    EXPECT_EQ(batched[i].seq, single[i].seq) << i;
    EXPECT_EQ(a.word[i], b.word[i]) << i;
  }
}

}  // namespace
}  // namespace simtmsg::matching
