#include "runtime/endpoint.hpp"

#include <gtest/gtest.h>

namespace simtmsg::runtime {
namespace {

// Every cluster test runs once per SchedulerPolicy value; kEventDriven is
// the only one.  Tests asserting *scheduler-specific* behavior, and the
// scan-oracle wall the scheduler is checked against, live in
// scheduler_test.cpp.
class ClusterPolicyTest : public ::testing::TestWithParam<SchedulerPolicy> {
 protected:
  ClusterConfig nodes_cfg(int n) const {
    ClusterConfig cfg;
    cfg.nodes = n;
    cfg.scheduler = GetParam();
    return cfg;
  }
  ClusterConfig two_nodes() const { return nodes_cfg(2); }
};

INSTANTIATE_TEST_SUITE_P(Policies, ClusterPolicyTest,
                         ::testing::Values(SchedulerPolicy::kEventDriven),
                         [](const auto&) { return "EventDriven"; });

TEST_P(ClusterPolicyTest, SendThenRecvCompletes) {
  Cluster c(two_nodes());
  const auto h = c.irecv(1, 0, 7);
  c.send(0, 1, 7, 0xBEEF);
  const auto r = c.wait(h);
  EXPECT_EQ(r.payload, 0xBEEFu);
  EXPECT_EQ(r.src, 0);
  EXPECT_EQ(r.tag, 7);
}

TEST_P(ClusterPolicyTest, RecvBeforeSendAlsoCompletes) {
  Cluster c(two_nodes());
  c.send(0, 1, 3, 42);
  const auto h = c.irecv(1, 0, 3);
  EXPECT_EQ(c.wait(h).payload, 42u);
}

TEST_P(ClusterPolicyTest, TestIsNonBlocking) {
  Cluster c(two_nodes());
  const auto h = c.irecv(1, 0, 1);
  EXPECT_FALSE(c.test(h));
  c.send(0, 1, 1, 5);
  c.run_until_quiescent();
  EXPECT_TRUE(c.test(h));
  EXPECT_EQ(c.result(h)->payload, 5u);
}

TEST_P(ClusterPolicyTest, WildcardRecvResolvesConcreteSource) {
  Cluster c(two_nodes());
  const auto h = c.irecv(1, matching::kAnySource, matching::kAnyTag);
  c.send(0, 1, 9, 1);
  const auto r = c.wait(h);
  EXPECT_EQ(r.src, 0);
  EXPECT_EQ(r.tag, 9);
}

TEST_P(ClusterPolicyTest, OrderingBetweenSamePair) {
  // MPI guarantee: same-pair same-tag messages match posted receives in
  // send order.
  Cluster c(two_nodes());
  const auto h1 = c.irecv(1, 0, 4);
  const auto h2 = c.irecv(1, 0, 4);
  c.send(0, 1, 4, 111);
  c.send(0, 1, 4, 222);
  EXPECT_EQ(c.wait(h1).payload, 111u);
  EXPECT_EQ(c.wait(h2).payload, 222u);
}

TEST_P(ClusterPolicyTest, DeadlockIsDetected) {
  Cluster c(two_nodes());
  const auto h = c.irecv(1, 0, 5);
  // No send: the wait must fail rather than spin forever.
  EXPECT_THROW((void)c.wait(h), std::runtime_error);
}

TEST_P(ClusterPolicyTest, WrongTagDoesNotMatch) {
  Cluster c(two_nodes());
  const auto h = c.irecv(1, 0, 5);
  c.send(0, 1, 6, 1);
  EXPECT_THROW((void)c.wait(h), std::runtime_error);
}

TEST_P(ClusterPolicyTest, WildcardsRejectedWhenProhibited) {
  ClusterConfig cfg = two_nodes();
  cfg.semantics.wildcards = false;
  cfg.semantics.partitions = 4;
  Cluster c(cfg);
  EXPECT_THROW((void)c.irecv(1, matching::kAnySource, 0), std::invalid_argument);
  EXPECT_NO_THROW((void)c.irecv(1, 0, 0));
}

TEST_P(ClusterPolicyTest, InvalidConfigRejected) {
  ClusterConfig bad = two_nodes();
  bad.semantics.partitions = 4;  // Partitioning with wildcards: invalid.
  EXPECT_THROW(Cluster{bad}, std::invalid_argument);
  ClusterConfig none = two_nodes();
  none.nodes = 0;
  EXPECT_THROW(Cluster{none}, std::invalid_argument);
}

TEST_P(ClusterPolicyTest, BarrierDetectsUnexpectedUnderStrictSemantics) {
  ClusterConfig cfg = two_nodes();
  cfg.semantics.wildcards = false;
  cfg.semantics.ordering = false;
  cfg.semantics.unexpected = false;
  cfg.semantics.partitions = 2;
  Cluster c(cfg);
  c.send(0, 1, 3, 1);  // No receive posted: illegal under these semantics.
  EXPECT_THROW(c.barrier(), std::runtime_error);
}

TEST_P(ClusterPolicyTest, BarrierPassesWhenAllPrePosted) {
  ClusterConfig cfg = two_nodes();
  cfg.semantics.wildcards = false;
  cfg.semantics.ordering = false;
  cfg.semantics.unexpected = false;
  cfg.semantics.partitions = 2;
  Cluster c(cfg);
  const auto h = c.irecv(1, 0, 3);
  c.send(0, 1, 3, 77);
  EXPECT_NO_THROW(c.barrier());
  EXPECT_EQ(c.result(h)->payload, 77u);
}

TEST_P(ClusterPolicyTest, HashSemanticsDeliverAllPayloads) {
  ClusterConfig cfg = nodes_cfg(4);
  cfg.semantics.wildcards = false;
  cfg.semantics.ordering = false;
  cfg.semantics.partitions = 4;
  Cluster c(cfg);

  std::vector<RecvHandle> handles;
  for (int src = 1; src < 4; ++src) {
    for (int tag = 0; tag < 16; ++tag) handles.push_back(c.irecv(0, src, tag));
  }
  for (int src = 1; src < 4; ++src) {
    for (int tag = 0; tag < 16; ++tag) {
      c.send(src, 0, tag, static_cast<std::uint64_t>(src * 100 + tag));
    }
  }
  c.run_until_quiescent();
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const auto r = c.result(handles[i]);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->payload, static_cast<std::uint64_t>(r->src * 100 + r->tag));
  }
}

TEST_P(ClusterPolicyTest, StatsAccumulate) {
  Cluster c(two_nodes());
  const auto h = c.irecv(1, 0, 0);
  c.send(0, 1, 0, 1);
  (void)c.wait(h);
  const auto s = c.stats();
  EXPECT_EQ(s.messages_sent, 1u);
  EXPECT_EQ(s.receives_posted, 1u);
  EXPECT_EQ(s.matches, 1u);
  EXPECT_GT(s.matching_seconds, 0.0);
  EXPECT_GT(s.virtual_time_us, 0.0);
}

TEST_P(ClusterPolicyTest, ManyToOneFanIn) {
  Cluster c(nodes_cfg(8));
  std::vector<RecvHandle> handles;
  for (int src = 1; src < 8; ++src) handles.push_back(c.irecv(0, src, 1));
  for (int src = 1; src < 8; ++src) c.send(src, 0, 1, static_cast<std::uint64_t>(src));
  c.run_until_quiescent();
  for (int src = 1; src < 8; ++src) {
    EXPECT_EQ(c.result(handles[static_cast<std::size_t>(src - 1)])->payload,
              static_cast<std::uint64_t>(src));
  }
}

TEST_P(ClusterPolicyTest, VirtualTimeAdvancesWithTraffic) {
  Cluster c(two_nodes());
  EXPECT_EQ(c.now_us(), 0.0);
  const auto h = c.irecv(1, 0, 0);
  c.send(0, 1, 0, 1);
  (void)c.wait(h);
  EXPECT_GE(c.now_us(), c.stats().virtual_time_us);
  EXPECT_GT(c.now_us(), 1.0);  // At least the network latency.
}


TEST_P(ClusterPolicyTest, CommunicatorsIsolateTraffic) {
  // Same {src, tag} on two communicators: each receive must take the
  // message from its own communicator (the progress engine's MatchEngine
  // splits per comm).
  Cluster c(two_nodes());
  const auto h_a = c.irecv(1, 0, 5, /*comm=*/1);
  const auto h_b = c.irecv(1, 0, 5, /*comm=*/2);
  c.send(0, 1, 5, /*payload=*/222, /*comm=*/2);
  c.send(0, 1, 5, /*payload=*/111, /*comm=*/1);
  c.run_until_quiescent();
  EXPECT_EQ(c.result(h_a)->payload, 111u);
  EXPECT_EQ(c.result(h_b)->payload, 222u);
}

TEST_P(ClusterPolicyTest, JitteredNetworkStillDeliversEverything) {
  ClusterConfig cfg = nodes_cfg(4);
  cfg.network.jitter_us = 2.0;  // Cross-pair reordering.
  Cluster c(cfg);
  std::vector<RecvHandle> handles;
  for (int src = 1; src < 4; ++src) {
    for (int t = 0; t < 8; ++t) handles.push_back(c.irecv(0, src, t));
  }
  for (int src = 1; src < 4; ++src) {
    for (int t = 0; t < 8; ++t) {
      c.send(src, 0, t, static_cast<std::uint64_t>(src * 10 + t));
    }
  }
  c.run_until_quiescent();
  for (const auto& h : handles) {
    const auto r = c.result(h);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->payload, static_cast<std::uint64_t>(r->src * 10 + r->tag));
  }
}

TEST_P(ClusterPolicyTest, SendRejectsBadArguments) {
  Cluster c(two_nodes());
  EXPECT_THROW(c.send(-1, 1, 0, 0), std::out_of_range);
  EXPECT_THROW(c.send(0, 5, 0, 0), std::out_of_range);
  EXPECT_THROW(c.send(0, 1, matching::kAnyTag, 0), std::invalid_argument);
}

TEST_P(ClusterPolicyTest, WaitReturnsImmediatelyWhenAlreadyComplete) {
  Cluster c(two_nodes());
  const auto h = c.irecv(1, 0, 2);
  c.send(0, 1, 2, 9);
  c.run_until_quiescent();
  EXPECT_EQ(c.wait(h).payload, 9u);  // No further progress needed.
}

TEST_P(ClusterPolicyTest, DeadlockErrorNamesTheStuckHandle) {
  Cluster c(two_nodes());
  const auto h = c.irecv(1, 0, 5, /*comm=*/3);
  try {
    (void)c.wait(h);
    FAIL() << "wait() should have thrown";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("node 1"), std::string::npos) << what;
    EXPECT_NE(what.find("handle " + std::to_string(h.id)), std::string::npos) << what;
    EXPECT_NE(what.find("src=0"), std::string::npos) << what;
    EXPECT_NE(what.find("tag=5"), std::string::npos) << what;
    EXPECT_NE(what.find("comm=3"), std::string::npos) << what;
    // The scheduler's view: receives posted, nothing inbound.
    EXPECT_NE(what.find("scheduler view: starved"), std::string::npos) << what;
  }
}

TEST_P(ClusterPolicyTest, ShardsPerNodeZeroRejected) {
  ClusterConfig bad = two_nodes();
  bad.shards_per_node = 0;
  EXPECT_THROW(Cluster{bad}, std::invalid_argument);
}

TEST_P(ClusterPolicyTest, ShardedNodesDeliverIdenticalResultsAndHeadlineStats) {
  // shards_per_node partitions each node's matching by (comm, src); every
  // receive must resolve to the same payload, and the headline counters
  // must agree with the single-shard run (matching_seconds may differ: the
  // modelled time is the slowest shard's, not the sum).
  const auto run = [this](int shards) {
    ClusterConfig cfg = nodes_cfg(4);
    cfg.shards_per_node = shards;
    Cluster c(cfg);
    std::vector<RecvHandle> handles;
    for (int src = 1; src < 4; ++src) {
      for (int tag = 0; tag < 12; ++tag) handles.push_back(c.irecv(0, src, tag));
    }
    for (int src = 1; src < 4; ++src) {
      for (int tag = 0; tag < 12; ++tag) {
        c.send(src, 0, tag, static_cast<std::uint64_t>(src * 100 + tag));
      }
    }
    c.run_until_quiescent();
    std::vector<std::uint64_t> payloads;
    for (const auto& h : handles) {
      const auto r = c.result(h);
      EXPECT_TRUE(r.has_value()) << "shards=" << shards;
      payloads.push_back(r ? r->payload : 0);
    }
    const auto s = c.stats();
    return std::make_tuple(payloads, s.messages_sent, s.receives_posted, s.matches);
  };
  const auto base = run(1);
  EXPECT_EQ(run(2), base);
  EXPECT_EQ(run(8), base);
}

TEST_P(ClusterPolicyTest, ShardedWildcardRecvStillResolves) {
  // An MPI_ANY_SOURCE receive on a sharded node takes the serialized
  // all-shard path; delivery must be unaffected.
  ClusterConfig cfg = two_nodes();
  cfg.shards_per_node = 4;
  Cluster c(cfg);
  const auto h = c.irecv(1, matching::kAnySource, matching::kAnyTag);
  c.send(0, 1, 9, 1);
  const auto r = c.wait(h);
  EXPECT_EQ(r.src, 0);
  EXPECT_EQ(r.tag, 9);
}

TEST_P(ClusterPolicyTest, SnapshotExportsHeadlineAndPerNodeEntries) {
  Cluster c(two_nodes());
  const auto h = c.irecv(1, 0, 0);
  c.send(0, 1, 0, 1);
  (void)c.wait(h);
  const auto r = c.snapshot();
  EXPECT_EQ(r.counters.at("runtime.cluster.messages_sent"), 1u);
  EXPECT_EQ(r.counters.at("runtime.cluster.receives_posted"), 1u);
  EXPECT_EQ(r.counters.at("runtime.cluster.delivery_failures"), 0u);
  EXPECT_GT(r.gauges.at("runtime.cluster.virtual_time_us"), 0.0);
  ASSERT_TRUE(r.gauges.contains("runtime.node.0.matching_seconds"));
  ASSERT_TRUE(r.gauges.contains("runtime.node.1.matching_seconds"));
  // Node 1 did the matching; node 0 only sent.
  EXPECT_GT(r.gauges.at("runtime.node.1.matching_seconds"), 0.0);
  EXPECT_EQ(r.gauges.at("runtime.node.0.matching_seconds"), 0.0);

  // stats() is a thin view over the same report: the fields must agree.
  const auto s = c.stats();
  EXPECT_EQ(s.messages_sent, r.counters.at("runtime.cluster.messages_sent"));
  EXPECT_EQ(s.matches, r.matches);
  EXPECT_EQ(s.matching_seconds, r.seconds);
  EXPECT_EQ(s.virtual_time_us, r.gauges.at("runtime.cluster.virtual_time_us"));
}

TEST_P(ClusterPolicyTest, SnapshotExportsSchedulerInstruments) {
  Cluster c(two_nodes());
  const auto h = c.irecv(1, 0, 0);
  c.send(0, 1, 0, 1);
  (void)c.wait(h);
  const auto r = c.snapshot();
  EXPECT_GT(r.counters.at("runtime.scheduler.ticks"), 0u);
  EXPECT_GT(r.counters.at("runtime.scheduler.nodes_stepped"), 0u);
  EXPECT_GT(r.counters.at("runtime.scheduler.wakes"), 0u);
  EXPECT_EQ(r.counters.at("runtime.scheduler.rto_expiries"), 0u);  // Ideal wire.
  EXPECT_GE(r.gauges.at("runtime.scheduler.active_set_peak"), 1.0);
  // Only node 1 ever has matching work: the idle sender is never stepped.
  EXPECT_GT(r.counters.at("runtime.scheduler.idle_steps_skipped"), 0u);
}

}  // namespace
}  // namespace simtmsg::runtime
