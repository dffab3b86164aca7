#include "runtime/collectives.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace simtmsg::runtime {
namespace {

ClusterConfig nodes_cfg(int n) {
  ClusterConfig cfg;
  cfg.nodes = n;
  return cfg;
}

std::vector<std::uint64_t> iota_contributions(int n) {
  std::vector<std::uint64_t> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = static_cast<std::uint64_t>(i + 1);
  return v;
}

/// Axes: node count x pattern-table matching.  Every dense collective must
/// be value-identical across the whole grid.
class CollectivesParam : public ::testing::TestWithParam<std::tuple<int, bool>> {
 protected:
  [[nodiscard]] static int nodes() { return std::get<0>(GetParam()); }

  [[nodiscard]] static ClusterConfig cfg() {
    ClusterConfig c = nodes_cfg(nodes());
    c.semantics.pattern_table = std::get<1>(GetParam());
    return c;
  }
};

/// The "_event" suffix names the event-driven scheduler the instances run
/// under.
std::string collectives_param_name(
    const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
  return "p" + std::to_string(std::get<0>(info.param)) +
         (std::get<1>(info.param) ? "_pattern" : "_baseline") + "_event";
}

TEST_P(CollectivesParam, BroadcastReachesEveryNode) {
  Cluster c(cfg());
  Collectives coll(c);
  const auto values = coll.broadcast(/*root=*/0, 0xABCD);
  for (const auto v : values) EXPECT_EQ(v, 0xABCDu);
}

TEST_P(CollectivesParam, BroadcastFromNonZeroRoot) {
  const int p = nodes();
  Cluster c(cfg());
  Collectives coll(c);
  const auto values = coll.broadcast(p - 1, 77);
  for (const auto v : values) EXPECT_EQ(v, 77u);
}

TEST_P(CollectivesParam, ReduceSumsEverything) {
  const int p = nodes();
  Cluster c(cfg());
  Collectives coll(c);
  const auto contrib = iota_contributions(p);
  const auto total = coll.reduce_sum(0, contrib);
  EXPECT_EQ(total, static_cast<std::uint64_t>(p) * (p + 1) / 2);
}

TEST_P(CollectivesParam, AllreduceGivesEveryoneTheSum) {
  const int p = nodes();
  Cluster c(cfg());
  Collectives coll(c);
  const auto out = coll.allreduce_sum(iota_contributions(p));
  ASSERT_EQ(out.size(), static_cast<std::size_t>(p));
  for (const auto v : out) EXPECT_EQ(v, static_cast<std::uint64_t>(p) * (p + 1) / 2);
}

TEST_P(CollectivesParam, AllgatherCollectsAllBlocks) {
  const int p = nodes();
  Cluster c(cfg());
  Collectives coll(c);
  const auto out = coll.allgather(iota_contributions(p));
  ASSERT_EQ(out.size(), static_cast<std::size_t>(p));
  for (int n = 0; n < p; ++n) {
    for (int b = 0; b < p; ++b) {
      EXPECT_EQ(out[static_cast<std::size_t>(n)][static_cast<std::size_t>(b)],
                static_cast<std::uint64_t>(b + 1))
          << "node " << n << " block " << b;
    }
  }
}

// Power-of-two and odd node counts (recursive doubling vs reduce+bcast),
// list vs pattern-table matching.
INSTANTIATE_TEST_SUITE_P(
    NodeCountsByMatcherBySchedulers, CollectivesParam,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 7, 8, 16), ::testing::Bool()),
    collectives_param_name);

TEST(Collectives, AllreduceWithMaxOperator) {
  Cluster c(nodes_cfg(8));
  Collectives coll(c);
  const std::vector<std::uint64_t> contrib = {3, 9, 1, 7, 2, 8, 5, 4};
  const auto out = coll.allreduce(
      contrib, [](std::uint64_t a, std::uint64_t b) { return std::max(a, b); });
  for (const auto v : out) EXPECT_EQ(v, 9u);
}

TEST(Collectives, RecursiveDoublingMessageComplexity) {
  // Power-of-two allreduce: exactly p * log2(p) messages.
  Cluster c(nodes_cfg(8));
  Collectives coll(c);
  (void)coll.allreduce_sum(iota_contributions(8));
  EXPECT_EQ(coll.messages_used(), 8u * 3u);
}

TEST(Collectives, BroadcastMessageComplexity) {
  // Binomial tree: p - 1 messages.
  Cluster c(nodes_cfg(16));
  Collectives coll(c);
  (void)coll.broadcast(0, 1);
  EXPECT_EQ(coll.messages_used(), 15u);
}

TEST(Collectives, WorksUnderRelaxedSemantics) {
  // Collectives must compose with the hash (out-of-order) matching row —
  // the tags are unique per round, which is all the relaxation requires.
  ClusterConfig cfg = nodes_cfg(8);
  cfg.semantics.wildcards = false;
  cfg.semantics.ordering = false;
  cfg.semantics.partitions = 4;
  Cluster c(cfg);
  Collectives coll(c);
  const auto out = coll.allreduce_sum(iota_contributions(8));
  for (const auto v : out) EXPECT_EQ(v, 36u);
  const auto bc = coll.broadcast(3, 123);
  for (const auto v : bc) EXPECT_EQ(v, 123u);
}

TEST(Collectives, RejectsBadArguments) {
  Cluster c(nodes_cfg(4));
  Collectives coll(c);
  EXPECT_THROW((void)coll.broadcast(9, 0), std::out_of_range);
  const std::vector<std::uint64_t> wrong_size = {1, 2};
  EXPECT_THROW((void)coll.reduce_sum(0, wrong_size), std::invalid_argument);
  EXPECT_THROW((void)coll.allreduce_sum(wrong_size), std::invalid_argument);
  EXPECT_THROW((void)coll.allgather(wrong_size), std::invalid_argument);
}

TEST(Collectives, SingleNodeDegenerates) {
  Cluster c(nodes_cfg(1));
  Collectives coll(c);
  EXPECT_EQ(coll.broadcast(0, 5)[0], 5u);
  const std::vector<std::uint64_t> one = {42};
  EXPECT_EQ(coll.reduce_sum(0, one), 42u);
  EXPECT_EQ(coll.allgather(one)[0][0], 42u);
  EXPECT_EQ(coll.messages_used(), 0u);
}

/// A fabric that drops, duplicates, corrupts, and delays — with a retry cap
/// generous enough that the reliability layer always recovers.
ClusterConfig lossy_cfg(int n, std::uint64_t seed) {
  ClusterConfig cfg = nodes_cfg(n);
  cfg.network.seed = seed;
  cfg.network.jitter_us = 0.3;
  cfg.network.faults.drop_prob = 0.15;
  cfg.network.faults.dup_prob = 0.1;
  cfg.network.faults.corrupt_prob = 0.05;
  cfg.network.faults.delay_spike_prob = 0.05;
  cfg.network.faults.delay_spike_us = 20.0;
  cfg.reliability.enabled = true;
  cfg.reliability.timeout_us = 10.0;
  cfg.reliability.max_attempts = 12;
  return cfg;
}

TEST(CollectivesLossy, ResultsMatchTheLosslessRun) {
  for (const int p : {2, 3, 8}) {
    Cluster ideal(nodes_cfg(p));
    Collectives ideal_coll(ideal);
    Cluster lossy(lossy_cfg(p, /*seed=*/0xC0FFEE));
    Collectives lossy_coll(lossy);

    const auto contrib = iota_contributions(p);
    EXPECT_EQ(lossy_coll.broadcast(0, 0xABCD), ideal_coll.broadcast(0, 0xABCD));
    EXPECT_EQ(lossy_coll.reduce_sum(0, contrib), ideal_coll.reduce_sum(0, contrib));
    EXPECT_EQ(lossy_coll.allreduce_sum(contrib), ideal_coll.allreduce_sum(contrib));
    EXPECT_EQ(lossy_coll.allgather(contrib), ideal_coll.allgather(contrib));
    EXPECT_TRUE(lossy.delivery_failures().empty()) << "p=" << p;
  }
}

TEST(CollectivesLossy, RecoveryCostShowsUpInTelemetryNotInResults) {
  Cluster lossy(lossy_cfg(8, /*seed=*/0xC0FFEE));
  Collectives coll(lossy);
  const auto out = coll.allreduce_sum(iota_contributions(8));
  for (const auto v : out) EXPECT_EQ(v, 36u);
  // Same message complexity at the collective layer: retransmissions are
  // the reliability layer's business, not extra collective rounds.
  EXPECT_EQ(coll.messages_used(), 8u * 3u);
}

TEST(CollectivesLossy, DeadLinkFailsTheOperationWithTheFailureAttached) {
  // One direction of one link eats every data packet: the round cannot
  // complete, and the error names the delivery failures instead of hanging.
  ClusterConfig cfg = nodes_cfg(4);
  cfg.reliability.enabled = true;
  cfg.reliability.timeout_us = 5.0;
  cfg.reliability.max_attempts = 2;
  cfg.network.faults.script = [](const Packet& p) {
    return WireFault{.drop = p.kind == PacketKind::kData && p.from == 1 && p.to == 0};
  };
  Cluster c(cfg);
  Collectives coll(c);
  try {
    (void)coll.allreduce_sum(iota_contributions(4));
    FAIL() << "allreduce over a dead link must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("delivery failure"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(c.delivery_failures().empty());
}

TEST(Collectives, BackToBackOperationsDoNotInterfere) {
  Cluster c(nodes_cfg(4));
  Collectives coll(c);
  for (int i = 0; i < 5; ++i) {
    const auto out = coll.allreduce_sum(iota_contributions(4));
    for (const auto v : out) EXPECT_EQ(v, 10u);
    const auto bc = coll.broadcast(i % 4, static_cast<std::uint64_t>(i));
    for (const auto v : bc) EXPECT_EQ(v, static_cast<std::uint64_t>(i));
  }
}

}  // namespace
}  // namespace simtmsg::runtime
