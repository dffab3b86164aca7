// Stream-sliced endpoint conformance wall (docs/streams.md).
//
// The contract under test:
//
//   * streams=1 is today's runtime, bit for bit: a cluster pinned to the
//     default stream and driven through the stream-qualified API produces
//     byte-identical telemetry snapshots to the unqualified API, across
//     every Table II row x shards {1,2,8} x threads {1,8};
//   * per-stream FIFO: within one stream, ordered semantics deliver in
//     send order, exactly as a serialized single-stream oracle does;
//   * cross-stream relaxation: a retransmit stall on one stream never
//     head-of-line-blocks a sibling stream of the same endpoint pair
//     (where the pre-stream runtime provably did block);
//   * stream ids are validated against ClusterConfig.max_streams, and the
//     SIMTMSG_STREAMS environment variable picks the default bound;
//   * faults confined to one stream (FaultModel.script keyed on
//     env.stream) never disturb sibling streams — the chaos leg.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "matching/semantics.hpp"
#include "runtime/endpoint.hpp"
#include "util/rng.hpp"

namespace simtmsg::runtime {
namespace {

/// Pure 64-bit mix (util::splitmix64 advances its state argument; tests
/// want a stateless hash of a fixed key).
std::uint64_t mix(std::uint64_t state) { return util::splitmix64(state); }

/// One deterministic point-to-point message.
struct Flow {
  int from;
  int to;
  matching::Tag tag;
  std::uint64_t payload;
  matching::StreamId stream = matching::kDefaultStream;
};

/// Unique-tuple traffic every Table II row can fully match: concrete
/// sources, globally unique tags.
std::vector<Flow> wall_traffic(int nodes, int flows) {
  std::vector<Flow> out;
  for (int i = 0; i < flows; ++i) {
    Flow f;
    f.from = i % nodes;
    f.to = (i + 1 + i / nodes) % nodes;
    if (f.to == f.from) f.to = (f.to + 1) % nodes;
    f.tag = static_cast<matching::Tag>(i);
    f.payload = mix(0xF10u + static_cast<std::uint64_t>(i));
    out.push_back(f);
  }
  return out;
}

/// Drive the traffic through the pre-stream (unqualified) API.
std::string run_unqualified(const ClusterConfig& cfg, const std::vector<Flow>& flows) {
  Cluster c(cfg);
  std::vector<RecvHandle> handles;
  for (const Flow& f : flows) handles.push_back(c.irecv(f.to, f.from, f.tag));
  for (const Flow& f : flows) (void)c.send(f.from, f.to, f.tag, f.payload);
  c.run_until_quiescent();
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto r = c.result(handles[i]);
    EXPECT_TRUE(r.has_value()) << i;
    if (r) {
      EXPECT_EQ(r->payload, flows[i].payload) << i;
    }
  }
  return c.snapshot().to_json().dump();
}

/// Drive the same traffic through the stream-qualified API on a cluster
/// pinned to a single stream (max_streams = 1, the streams=1 leg).
std::string run_stream_qualified(ClusterConfig cfg, const std::vector<Flow>& flows) {
  cfg.max_streams = 1;
  Cluster c(cfg);
  std::vector<RecvHandle> handles;
  for (const Flow& f : flows) {
    handles.push_back(c.irecv(Stream{}, f.to, f.from, f.tag));
  }
  for (const Flow& f : flows) {
    const SendHandle s = c.send(Stream{}, f.from, f.to, f.tag, f.payload);
    EXPECT_TRUE(s.valid());
  }
  c.run_until_quiescent();
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto r = c.result(handles[i]);
    EXPECT_TRUE(r.has_value()) << i;
    if (r) {
      EXPECT_EQ(r->payload, flows[i].payload) << i;
      EXPECT_EQ(r->stream, matching::kDefaultStream) << i;
    }
  }
  return c.snapshot().to_json().dump();
}

TEST(StreamWall, SingleStreamIsBitIdenticalToUnqualifiedApi) {
  // The tentpole identity: Table II rows x shards x threads.
  // Every cell compares full telemetry snapshots (counters, gauges,
  // histograms, matcher totals) serialized to JSON — byte equality.
  const auto flows = wall_traffic(/*nodes=*/4, /*flows=*/24);
  for (const auto& row : matching::table2_rows()) {
    for (const int shards : {1, 2, 8}) {
      for (const int threads : {1, 8}) {
        ClusterConfig cfg;
        cfg.nodes = 4;
        cfg.semantics = row;
        cfg.policy = simt::ExecutionPolicy{threads};
        cfg.shards_per_node = shards;
        const std::string where = matching::describe(row) +
                                  " shards=" + std::to_string(shards) +
                                  " threads=" + std::to_string(threads);
        EXPECT_EQ(run_stream_qualified(cfg, flows), run_unqualified(cfg, flows)) << where;
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(StreamOrdering, PerStreamFifoMatchesSerializedOracle) {
  // Interleaved injection over S streams, wildcard-tag receives: ordered
  // semantics must deliver each stream's messages in that stream's send
  // order — and each per-stream result sequence must equal a serialized
  // oracle cluster that carries only that stream's traffic (unqualified,
  // i.e. the pre-stream runtime).
  constexpr int kStreams = 6;
  constexpr int kPerStream = 8;
  const auto payload = [](int stream, int i) {
    return mix(static_cast<std::uint64_t>(stream * 1000 + i));
  };

  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.max_streams = kStreams;
  Cluster c(cfg);
  std::vector<std::vector<RecvHandle>> handles(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    for (int i = 0; i < kPerStream; ++i) {
      handles[static_cast<std::size_t>(s)].push_back(
          c.irecv(Stream{s}, 1, 0, matching::kAnyTag));
    }
  }
  // Round-robin interleaving: stream s's i-th message is injected between
  // every other stream's i-th messages.
  for (int i = 0; i < kPerStream; ++i) {
    for (int s = 0; s < kStreams; ++s) {
      (void)c.send(Stream{s}, 0, 1, static_cast<matching::Tag>(i), payload(s, i));
    }
  }
  c.run_until_quiescent();

  for (int s = 0; s < kStreams; ++s) {
    // Serialized oracle: only stream s's traffic, pre-stream API.
    ClusterConfig oracle_cfg;
    oracle_cfg.nodes = 2;
    Cluster oracle(oracle_cfg);
    std::vector<RecvHandle> oracle_handles;
    for (int i = 0; i < kPerStream; ++i) {
      oracle_handles.push_back(oracle.irecv(1, 0, matching::kAnyTag));
    }
    for (int i = 0; i < kPerStream; ++i) {
      (void)oracle.send(0, 1, static_cast<matching::Tag>(i), payload(s, i));
    }
    oracle.run_until_quiescent();

    for (int i = 0; i < kPerStream; ++i) {
      const auto got = c.result(handles[static_cast<std::size_t>(s)]
                                       [static_cast<std::size_t>(i)]);
      const auto want = oracle.result(oracle_handles[static_cast<std::size_t>(i)]);
      ASSERT_TRUE(got.has_value()) << "stream " << s << " recv " << i;
      ASSERT_TRUE(want.has_value()) << "oracle recv " << i;
      EXPECT_EQ(got->payload, want->payload) << "stream " << s << " recv " << i;
      // FIFO within the stream: the i-th posted receive takes the i-th
      // sent message.
      EXPECT_EQ(got->payload, payload(s, i)) << "stream " << s << " recv " << i;
      EXPECT_EQ(got->stream, s);
    }
  }
}

/// Shared shape for the head-of-line-blocking pair below: tag 1's data
/// packets are dropped on their first two transmissions, tag 2 sails
/// through.  Returns (tag1 complete?, tag2 complete?) at the first moment
/// tag 2's receive completes, then drives to quiescence and checks both
/// payloads arrived intact.
std::pair<bool, bool> run_stalled_pair(Stream s1, Stream s2) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.max_streams = 8;
  cfg.reliability.enabled = true;
  cfg.reliability.timeout_us = 25.0;
  cfg.network.faults.script = [](const Packet& p) {
    WireFault f;
    f.drop = p.kind == PacketKind::kData && p.env.tag == 1 && p.attempt <= 2;
    return f;
  };
  Cluster c(cfg);
  const RecvHandle h1 = c.irecv(s1, 1, 0, 1);
  const RecvHandle h2 = c.irecv(s2, 1, 0, 2);
  (void)c.send(s1, 0, 1, 1, 0xAAA);  // Injected first; stalled twice.
  (void)c.send(s2, 0, 1, 2, 0xBBB);
  while (!c.test(h2)) (void)c.progress();
  const std::pair<bool, bool> at_h2 = {c.test(h1), c.test(h2)};
  const RecvResult r1 = c.wait(h1);
  EXPECT_EQ(r1.payload, 0xAAAu);
  EXPECT_EQ(c.wait(h2).payload, 0xBBBu);
  EXPECT_TRUE(c.delivery_failures().empty());
  return at_h2;
}

TEST(StreamOrdering, RetransmitStallNeverBlocksASiblingStream) {
  // Two streams: while stream 1 waits out its retransmit timeouts, stream
  // 2's message (sent later!) completes — independent (pair, stream)
  // seq/ack/watermark spaces mean no head-of-line blocking.
  const auto [t1_done, t2_done] = run_stalled_pair(Stream{1}, Stream{2});
  EXPECT_TRUE(t2_done);
  EXPECT_FALSE(t1_done) << "stream 2 should complete during stream 1's stall";
}

TEST(StreamOrdering, SameStreamStillHoldsBackInOrder) {
  // Control leg: the same scenario on ONE stream keeps the pre-stream
  // contract — ordered semantics hold message 2 back until message 1's
  // retransmission lands, so both complete together.
  const auto [t1_done, t2_done] = run_stalled_pair(Stream{4}, Stream{4});
  EXPECT_TRUE(t2_done);
  EXPECT_TRUE(t1_done) << "in-order release must hold within one stream";
}

TEST(StreamApi, StreamIdsAreValidatedAgainstMaxStreams) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.max_streams = 4;
  Cluster c(cfg);
  EXPECT_THROW((void)c.send(Stream{-1}, 0, 1, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)c.send(Stream{4}, 0, 1, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)c.irecv(Stream{-1}, 1, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)c.irecv(Stream{4}, 1, 0, 0), std::invalid_argument);
  // The bound is exclusive: the last valid stream works end to end.
  const RecvHandle h = c.irecv(Stream{3}, 1, 0, 7);
  (void)c.send(Stream{3}, 0, 1, 7, 0x5EED);
  EXPECT_EQ(c.wait(h).payload, 0x5EEDu);

  ClusterConfig bad;
  bad.nodes = 2;
  bad.max_streams = 0;
  EXPECT_THROW(Cluster{bad}, std::invalid_argument);
}

TEST(StreamApi, HandlesReportValidity) {
  EXPECT_FALSE(RecvHandle{}.valid());
  EXPECT_FALSE(SendHandle{}.valid());
  ClusterConfig cfg;
  cfg.nodes = 2;
  Cluster c(cfg);
  const RecvHandle r = c.irecv(1, 0, 3);
  const SendHandle s = c.send(0, 1, 3, 42);
  EXPECT_TRUE(r.valid());
  EXPECT_TRUE(s.valid());
  EXPECT_EQ(s.from, 0);
  EXPECT_EQ(s.to, 1);
  c.run_until_quiescent();
  EXPECT_TRUE(r.valid());  // Validity is identity, not completion state.
  EXPECT_TRUE(c.test(r));
}

TEST(StreamApi, DefaultMaxStreamsFollowsEnvironment) {
  const char* prev = std::getenv("SIMTMSG_STREAMS");
  const std::string saved = prev != nullptr ? prev : "";

  ::setenv("SIMTMSG_STREAMS", "7", 1);
  EXPECT_EQ(default_max_streams(), 7);
  ::setenv("SIMTMSG_STREAMS", "1", 1);
  EXPECT_EQ(default_max_streams(), 1);
  ::setenv("SIMTMSG_STREAMS", "0", 1);  // Invalid: stream 0 must exist.
  EXPECT_EQ(default_max_streams(), 64);
  ::setenv("SIMTMSG_STREAMS", "banana", 1);
  EXPECT_EQ(default_max_streams(), 64);
  ::unsetenv("SIMTMSG_STREAMS");
  EXPECT_EQ(default_max_streams(), 64);

  if (prev != nullptr) {
    ::setenv("SIMTMSG_STREAMS", saved.c_str(), 1);
  }
}

TEST(StreamApi, StreamIsReusableAfterCancel) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.max_streams = 8;
  Cluster c(cfg);
  const RecvHandle h1 = c.irecv(Stream{3}, 1, 0, 5);
  EXPECT_TRUE(c.cancel(h1));
  EXPECT_FALSE(c.cancel(h1));  // Already cancelled.
  // The stream is immediately reusable; the cancelled receive never
  // completes and never absorbs the message.
  const RecvHandle h2 = c.irecv(Stream{3}, 1, 0, 5);
  (void)c.send(Stream{3}, 0, 1, 5, 0xCAFE);
  EXPECT_EQ(c.wait(h2).payload, 0xCAFEu);
  EXPECT_FALSE(c.result(h1).has_value());
}

TEST(StreamTelemetry, CountersAppearOnlyWithNonDefaultStreamActivity) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.max_streams = 8;
  {
    // Default-stream-only cluster: no runtime.stream.* keys at all.
    Cluster c(cfg);
    const RecvHandle h = c.irecv(1, 0, 0);
    (void)c.send(0, 1, 0, 1);
    (void)c.wait(h);
    for (const auto& [name, value] : c.snapshot().counters) {
      EXPECT_EQ(name.find("runtime.stream."), std::string::npos) << name;
    }
  }
  {
    Cluster c(cfg);
    const RecvHandle a = c.irecv(Stream{2}, 1, 0, 0);
    const RecvHandle b = c.irecv(Stream{2}, 1, 0, 1);
    const RecvHandle d = c.irecv(Stream{5}, 1, 0, 2);
    (void)c.send(Stream{2}, 0, 1, 0, 10);
    (void)c.send(Stream{2}, 0, 1, 1, 11);
    (void)c.send(Stream{2}, 0, 1, 2, 12);  // Unmatched tag on stream 2...
    (void)c.wait(a);
    (void)c.wait(b);
    (void)c.cancel(d);
    const auto report = c.snapshot();
    EXPECT_EQ(report.counters.at("runtime.stream.2.messages_sent"), 3u);
    EXPECT_EQ(report.counters.at("runtime.stream.2.receives_posted"), 2u);
    EXPECT_EQ(report.counters.at("runtime.stream.5.receives_posted"), 1u);
    // Streams 2 and 5 plus the always-live default stream.
    EXPECT_EQ(report.counters.at("runtime.stream.domains"), 3u);
  }
}

TEST(StreamChaos, FaultsConfinedToOneStreamNeverDisturbSiblings) {
  // Chaos leg: a FaultModel script keyed on env.stream drops a share of
  // one victim stream's data packets.  Sibling streams must complete with
  // oracle payloads; the victim stream must recover through retransmission
  // (generous cap) — and per-stream FIFO must survive the chaos.
  for (std::uint64_t iter = 0; iter < 10; ++iter) {
    const std::uint64_t seed = 0x57AEA5ull + iter;
    const int streams = 2 + static_cast<int>(seed % 3);
    const matching::StreamId victim =
        static_cast<matching::StreamId>(mix(seed) %
                                        static_cast<std::uint64_t>(streams));

    ClusterConfig cfg;
    cfg.nodes = 3;
    cfg.max_streams = streams;
    cfg.reliability.enabled = true;
    cfg.reliability.timeout_us = 10.0;
    cfg.reliability.max_attempts = 12;
    cfg.network.seed = seed;
    cfg.network.jitter_us = 0.3;

    // ~40% deterministic drop rate, victim stream only, first 3 attempts.
    ClusterConfig faulted_cfg = cfg;
    faulted_cfg.network.faults.script = [seed, victim](const Packet& p) {
      WireFault f;
      f.drop = p.kind == PacketKind::kData && p.env.stream == victim &&
               p.attempt <= 3 && (mix(seed ^ p.sequence) % 5) < 2;
      return f;
    };

    std::vector<Flow> flows;
    for (int i = 0; i < 30; ++i) {
      Flow f;
      f.from = i % 3;
      f.to = (i + 1) % 3;
      f.tag = static_cast<matching::Tag>(i);
      f.payload = mix(seed ^ (0xF00Dull + static_cast<std::uint64_t>(i)));
      f.stream = static_cast<matching::StreamId>(i % streams);
      flows.push_back(f);
    }

    const auto run = [&flows, iter](const ClusterConfig& c_cfg) {
      Cluster c(c_cfg);
      std::vector<RecvHandle> handles;
      for (const Flow& f : flows) {
        handles.push_back(c.irecv(Stream{f.stream}, f.to, f.from, f.tag));
      }
      for (const Flow& f : flows) {
        (void)c.send(Stream{f.stream}, f.from, f.to, f.tag, f.payload);
      }
      c.run_until_quiescent();
      std::vector<std::optional<RecvResult>> out;
      for (const RecvHandle& h : handles) out.push_back(c.result(h));
      EXPECT_TRUE(c.delivery_failures().empty()) << "iter " << iter;
      return out;
    };

    const auto expected = run(cfg);
    const auto got = run(faulted_cfg);
    for (std::size_t j = 0; j < flows.size(); ++j) {
      ASSERT_TRUE(expected[j].has_value()) << "iter " << iter << " flow " << j;
      ASSERT_TRUE(got[j].has_value())
          << "iter " << iter << " flow " << j << " stream " << flows[j].stream
          << " (victim " << victim << ")";
      EXPECT_EQ(got[j]->payload, expected[j]->payload)
          << "iter " << iter << " flow " << j;
      EXPECT_EQ(got[j]->stream, flows[j].stream);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace simtmsg::runtime
