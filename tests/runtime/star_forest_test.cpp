// StarForest conformance wall (docs/collectives.md).
//
// The correctness anchor is a *dense-oracle* equivalence: every StarForest
// operation must be value-identical to a reference implementation built on
// the dense collectives layer (one whole-communicator broadcast per edge,
// applied in edge order), across
//
//   shards {1, 2, 8} x host threads {1, 8} x every matcher algorithm (the
//   six Table II semantics rows plus the pattern-table row),
//
// plus a chaos leg where faults are confined to one neighborhood: the
// faulted star's edges fail with typed failures while every disjoint
// neighborhood completes with the fault-free values.
#include "runtime/star_forest.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "matching/semantics.hpp"
#include "runtime/collectives.hpp"
#include "runtime/endpoint.hpp"

namespace simtmsg::runtime {
namespace {

using SlotKey = std::pair<int, std::int32_t>;  // (node, slot).
using SlotMap = std::map<SlotKey, std::uint64_t>;

/// Deterministic initial data: the value a root slot starts with.
std::uint64_t seed_root(int node, std::int32_t slot) {
  return 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(node + 1) ^
         (static_cast<std::uint64_t>(slot) << 7);
}

/// Deterministic leaf contributions / operands.
std::uint64_t seed_leaf(int node, std::int32_t slot) {
  return 0xC2B2AE3D27D4EB4Full * static_cast<std::uint64_t>(node + 3) ^
         (static_cast<std::uint64_t>(slot) << 3);
}

/// Non-commutative, non-associative combiner: any deviation from the
/// documented edge-order application shows up in the value.
std::uint64_t chain_op(std::uint64_t a, std::uint64_t b) {
  return a * 1000003ull + b;
}

struct Scenario {
  std::string name;
  int nodes = 0;
  std::vector<SfEdge> edges;
};

/// Three shapes: one fat star, a halo-style ring forest, and a sparse
/// random-ish forest with parallel edges and a local (root == leaf) edge.
std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;

  Scenario star{"single_star", 6, {}};
  for (int l = 1; l < 6; ++l) {
    star.edges.push_back({.root = 0, .root_slot = l - 1, .leaf = l, .leaf_slot = 10 + l});
  }
  out.push_back(std::move(star));

  Scenario ring{"ring_halo", 6, {}};
  for (int n = 0; n < 6; ++n) {
    const int right = (n + 1) % 6;
    const int left = (n + 5) % 6;
    ring.edges.push_back({.root = n, .root_slot = 0, .leaf = right, .leaf_slot = 1});
    ring.edges.push_back({.root = n, .root_slot = 2, .leaf = left, .leaf_slot = 3});
  }
  out.push_back(std::move(ring));

  Scenario sparse{"sparse_forest", 9, {}};
  for (int n = 0; n < 9; ++n) {
    for (int k = 1; k <= 4; ++k) {
      const int leaf = (n + k * k) % 9;  // Degree 4, irregular neighborhoods.
      sparse.edges.push_back(
          {.root = n, .root_slot = k, .leaf = leaf, .leaf_slot = 20 + n});
    }
  }
  // Parallel edges on one pair (distinct tags) and a local edge (no wire).
  sparse.edges.push_back({.root = 1, .root_slot = 7, .leaf = 2, .leaf_slot = 40});
  sparse.edges.push_back({.root = 1, .root_slot = 8, .leaf = 2, .leaf_slot = 41});
  sparse.edges.push_back({.root = 3, .root_slot = 9, .leaf = 3, .leaf_slot = 42});
  out.push_back(std::move(sparse));

  return out;
}

/// Everything one full exercise of a forest produces: observable leaf and
/// root slot values after bcast, reduce (chain_op), and fetch_and_op
/// (chain_op), plus the wire-message count.
struct Outcome {
  SlotMap bcast_leaves;
  SlotMap reduced_roots;
  SlotMap fetch_leaves;
  SlotMap fetch_roots;
  std::uint64_t messages = 0;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

/// Read-through accumulator: slots default to seed_root until stored.
std::uint64_t slot_or_seed(const SlotMap& m, int node, std::int32_t slot) {
  const auto it = m.find({node, slot});
  return it != m.end() ? it->second : seed_root(node, slot);
}

Outcome run_star_forest(const ClusterConfig& cfg, const Scenario& sc,
                        StarForestConfig sf_cfg = {}) {
  Cluster cluster(cfg);
  StarForest sf(cluster, sc.edges, sf_cfg);
  Outcome out;

  sf.bcast([](int n, std::int32_t s) { return seed_root(n, s); },
           [&](int n, std::int32_t s, std::uint64_t v) { out.bcast_leaves[{n, s}] = v; });

  sf.reduce([](int n, std::int32_t s) { return seed_leaf(n, s); },
            [&](int n, std::int32_t s) { return slot_or_seed(out.reduced_roots, n, s); },
            [&](int n, std::int32_t s, std::uint64_t v) { out.reduced_roots[{n, s}] = v; },
            chain_op);

  sf.fetch_and_op(
      [](int n, std::int32_t s) { return seed_leaf(n, s); },
      [&](int n, std::int32_t s) { return slot_or_seed(out.fetch_roots, n, s); },
      [&](int n, std::int32_t s, std::uint64_t v) { out.fetch_roots[{n, s}] = v; },
      [&](int n, std::int32_t s, std::uint64_t v) { out.fetch_leaves[{n, s}] = v; },
      chain_op);

  out.messages = sf.messages_used();
  return out;
}

/// The dense oracle: the same contract built on the whole-communicator
/// collectives — one dense broadcast per edge, applied in edge order.
/// Deliberately naive (O(edges * nodes) messages); it exists to be
/// obviously correct, not fast.
Outcome run_dense_oracle(const Scenario& sc) {
  ClusterConfig cfg;
  cfg.nodes = sc.nodes;
  Cluster cluster(cfg);
  Collectives coll(cluster);
  Outcome out;

  for (const SfEdge& e : sc.edges) {
    const auto values = coll.broadcast(e.root, seed_root(e.root, e.root_slot));
    out.bcast_leaves[{e.leaf, e.leaf_slot}] = values[static_cast<std::size_t>(e.leaf)];
  }

  for (const SfEdge& e : sc.edges) {
    const auto values = coll.broadcast(e.leaf, seed_leaf(e.leaf, e.leaf_slot));
    const std::uint64_t acc = slot_or_seed(out.reduced_roots, e.root, e.root_slot);
    out.reduced_roots[{e.root, e.root_slot}] =
        chain_op(acc, values[static_cast<std::size_t>(e.root)]);
  }

  for (const SfEdge& e : sc.edges) {
    const auto operands = coll.broadcast(e.leaf, seed_leaf(e.leaf, e.leaf_slot));
    const std::uint64_t fetched = slot_or_seed(out.fetch_roots, e.root, e.root_slot);
    out.fetch_roots[{e.root, e.root_slot}] =
        chain_op(fetched, operands[static_cast<std::size_t>(e.root)]);
    const auto replies = coll.broadcast(e.root, fetched);
    out.fetch_leaves[{e.leaf, e.leaf_slot}] = replies[static_cast<std::size_t>(e.leaf)];
  }

  // Message counts are checked structurally, not against the oracle.
  return out;
}

/// The matcher-algorithm axis: the six Table II semantics rows plus the
/// pattern-table row — together they select every matcher in the engine.
std::vector<std::pair<std::string, matching::SemanticsConfig>> semantics_axis() {
  std::vector<std::pair<std::string, matching::SemanticsConfig>> out;
  for (const auto& row : matching::table2_rows()) {
    out.emplace_back(matching::describe(row), row);
  }
  out.emplace_back("pattern_table", matching::SemanticsConfig::pattern_tables());
  return out;
}

// ---------------------------------------------------------------------------
// The dense-oracle conformance wall.

/// The parameter is the semantics_axis() row; the "_event" suffix names the
/// event-driven scheduler the instances run under.
std::string wall_name(const ::testing::TestParamInfo<int>& info) {
  return "row" + std::to_string(info.param) + "_event";
}

class StarForestWall : public ::testing::TestWithParam<int> {};

TEST_P(StarForestWall, ValueIdenticalToDenseOracleAcrossShardsAndThreads) {
  const auto axis = semantics_axis();
  const auto& [label, semantics] =
      axis[static_cast<std::size_t>(GetParam())];

  for (const Scenario& sc : scenarios()) {
    const Outcome oracle = run_dense_oracle(sc);
    std::uint64_t messages_baseline = 0;
    bool have_baseline = false;
    for (const int shards : {1, 2, 8}) {
      for (const int threads : {1, 8}) {
        ClusterConfig cfg;
        cfg.nodes = sc.nodes;
        cfg.semantics = semantics;
        cfg.shards_per_node = shards;
        cfg.policy = simt::ExecutionPolicy{threads};
        const Outcome got = run_star_forest(cfg, sc);
        const std::string where = sc.name + " [" + label + "] shards=" +
                                  std::to_string(shards) +
                                  " threads=" + std::to_string(threads);
        EXPECT_EQ(got.bcast_leaves, oracle.bcast_leaves) << where;
        EXPECT_EQ(got.reduced_roots, oracle.reduced_roots) << where;
        EXPECT_EQ(got.fetch_leaves, oracle.fetch_leaves) << where;
        EXPECT_EQ(got.fetch_roots, oracle.fetch_roots) << where;
        if (!have_baseline) {
          messages_baseline = got.messages;
          have_baseline = true;
        } else {
          EXPECT_EQ(got.messages, messages_baseline) << where;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SemanticsBySchedulers, StarForestWall,
    ::testing::Range(0, 7),
    wall_name);

TEST(StarForestWallAxis, CoversEveryMatcherRow) {
  // The INSTANTIATE list above must span the whole axis; if a new matcher
  // row is added, this fails until the wall grows with it.
  EXPECT_EQ(semantics_axis().size(), 7u);
}

// ---------------------------------------------------------------------------
// Structural behaviour.

TEST(StarForest, MessageComplexity) {
  // bcast and reduce cost one message per remote edge; fetch_and_op costs
  // two (gather + scatter).  Local edges are free.
  for (const Scenario& sc : scenarios()) {
    ClusterConfig cfg;
    cfg.nodes = sc.nodes;
    Cluster cluster(cfg);
    StarForest sf(cluster, sc.edges);
    std::uint64_t remote = 0;
    for (const SfEdge& e : sc.edges) remote += e.root != e.leaf ? 1 : 0;

    SlotMap sink;
    sf.bcast([](int n, std::int32_t s) { return seed_root(n, s); },
             [&](int n, std::int32_t s, std::uint64_t v) { sink[{n, s}] = v; });
    EXPECT_EQ(sf.messages_used(), remote) << sc.name;

    sf.reduce([](int n, std::int32_t s) { return seed_leaf(n, s); },
              [&](int n, std::int32_t s) { return slot_or_seed(sink, n, s); },
              [&](int n, std::int32_t s, std::uint64_t v) { sink[{n, s}] = v; },
              chain_op);
    EXPECT_EQ(sf.messages_used(), 2 * remote) << sc.name;

    sf.fetch_and_op([](int n, std::int32_t s) { return seed_leaf(n, s); },
                    [&](int n, std::int32_t s) { return slot_or_seed(sink, n, s); },
                    [&](int n, std::int32_t s, std::uint64_t v) { sink[{n, s}] = v; },
                    [&](int n, std::int32_t s, std::uint64_t v) { sink[{n, s}] = v; },
                    chain_op);
    EXPECT_EQ(sf.messages_used(), 4 * remote) << sc.name;
  }
}

TEST(StarForest, DegreeAccessors) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  Cluster cluster(cfg);
  StarForest sf(cluster,
                {{.root = 0, .root_slot = 0, .leaf = 1, .leaf_slot = 0},
                 {.root = 0, .root_slot = 1, .leaf = 2, .leaf_slot = 0},
                 {.root = 2, .root_slot = 0, .leaf = 1, .leaf_slot = 1}});
  EXPECT_EQ(sf.nedges(), 3);
  EXPECT_EQ(sf.degree(0), 2);
  EXPECT_EQ(sf.degree(1), 0);
  EXPECT_EQ(sf.degree(2), 1);
  EXPECT_EQ(sf.leaf_degree(1), 2);
  EXPECT_EQ(sf.leaf_degree(3), 0);
}

TEST(StarForest, EmptyForestAndLocalOnlyForestAreFree) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  Cluster cluster(cfg);
  StarForest empty(cluster, {});
  SlotMap sink;
  empty.bcast([](int, std::int32_t) { return 1ull; },
              [&](int n, std::int32_t s, std::uint64_t v) { sink[{n, s}] = v; });
  EXPECT_TRUE(sink.empty());
  EXPECT_EQ(empty.messages_used(), 0u);

  StarForest local(cluster, {{.root = 1, .root_slot = 5, .leaf = 1, .leaf_slot = 6}});
  local.bcast([](int n, std::int32_t s) { return seed_root(n, s); },
              [&](int n, std::int32_t s, std::uint64_t v) { sink[{n, s}] = v; });
  EXPECT_EQ(local.messages_used(), 0u);
  EXPECT_EQ(sink.at({1, 6}), seed_root(1, 5));
}

TEST(StarForest, RejectsBadEdges) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  Cluster cluster(cfg);
  EXPECT_THROW(StarForest(cluster, {{.root = 3, .root_slot = 0, .leaf = 0, .leaf_slot = 0}}),
               std::invalid_argument);
  EXPECT_THROW(StarForest(cluster, {{.root = 0, .root_slot = 0, .leaf = -1, .leaf_slot = 0}}),
               std::invalid_argument);
  std::vector<SfEdge> too_many(
      static_cast<std::size_t>(StarForest::kMaxPairMultiplicity) + 1,
      SfEdge{.root = 0, .root_slot = 0, .leaf = 1, .leaf_slot = 0});
  EXPECT_THROW(StarForest(cluster, std::move(too_many)), std::invalid_argument);
}

TEST(StarForest, TelemetryCountersLandInClusterSnapshot) {
  const Scenario sc = scenarios()[2];  // sparse_forest: remote + local edges.
  ClusterConfig cfg;
  cfg.nodes = sc.nodes;
  Cluster cluster(cfg);
  StarForest sf(cluster, sc.edges);
  SlotMap sink;
  sf.bcast([](int n, std::int32_t s) { return seed_root(n, s); },
           [&](int n, std::int32_t s, std::uint64_t v) { sink[{n, s}] = v; });
  sf.reduce([](int n, std::int32_t s) { return seed_leaf(n, s); },
            [&](int n, std::int32_t s) { return slot_or_seed(sink, n, s); },
            [&](int n, std::int32_t s, std::uint64_t v) { sink[{n, s}] = v; },
            chain_op);

  const auto report = cluster.snapshot();
  const auto counter = [&](const char* name) {
    const auto it = report.counters.find(name);
    return it != report.counters.end() ? it->second : 0u;
  };
  EXPECT_EQ(counter("runtime.sf.forests"), 1u);
  EXPECT_EQ(counter("runtime.sf.edges_built"), static_cast<std::uint64_t>(sc.edges.size()));
  EXPECT_EQ(counter("runtime.sf.bcasts"), 1u);
  EXPECT_EQ(counter("runtime.sf.reduces"), 1u);
  EXPECT_EQ(counter("runtime.sf.fetch_ops"), 0u);
  EXPECT_EQ(counter("runtime.sf.messages"), sf.messages_used());
  std::uint64_t local_edges = 0;
  for (const SfEdge& e : sc.edges) local_edges += e.root == e.leaf ? 1 : 0;
  EXPECT_EQ(counter("runtime.sf.local_hops"), 2 * local_edges);  // Two ops ran.
  EXPECT_EQ(counter("runtime.sf.incomplete_edges"), 0u);
  const auto hist = report.histograms.find("runtime.sf.root_degree");
  ASSERT_NE(hist, report.histograms.end());
  EXPECT_EQ(hist->second.count, 9u);  // Nine distinct roots.
}

// ---------------------------------------------------------------------------
// Reliability composition.

/// A fabric that drops, duplicates, corrupts, and delays — with a retry cap
/// generous enough that the reliability layer always recovers.
ClusterConfig lossy_cfg(int n, std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.nodes = n;
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

TEST(StarForestLossy, ResultsMatchTheIdealFabric) {
  for (const Scenario& sc : scenarios()) {
    ClusterConfig ideal;
    ideal.nodes = sc.nodes;
    const Outcome want = run_star_forest(ideal, sc);
    const Outcome got = run_star_forest(lossy_cfg(sc.nodes, 0xC0FFEE), sc);
    EXPECT_EQ(got, want) << sc.name;
  }
}

TEST(StarForestLossy, DeadNeighborhoodThrowsWithFailuresAttached) {
  const Scenario sc = scenarios()[0];  // single_star rooted at 0.
  ClusterConfig cfg;
  cfg.nodes = sc.nodes;
  cfg.reliability.enabled = true;
  cfg.reliability.timeout_us = 5.0;
  cfg.reliability.max_attempts = 2;
  cfg.network.faults.script = [](const Packet& p) {
    return WireFault{.drop = p.kind == PacketKind::kData && p.from == 0 && p.to == 1};
  };
  Cluster cluster(cfg);
  StarForest sf(cluster, sc.edges);
  try {
    sf.bcast([](int n, std::int32_t s) { return seed_root(n, s); },
             [](int, std::int32_t, std::uint64_t) {});
    FAIL() << "bcast over a dead link must throw under kThrow";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("delivery failure"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(cluster.delivery_failures().empty());
}

// ---------------------------------------------------------------------------
// The neighborhood chaos wall: faults confined to one star; disjoint
// neighborhoods must make progress with fault-free values.

/// Two disjoint stars on 8 nodes: root 0 -> {1,2,3} and root 4 -> {5,6,7}.
Scenario two_neighborhoods() {
  Scenario sc{"two_neighborhoods", 8, {}};
  for (int l = 1; l <= 3; ++l) {
    sc.edges.push_back({.root = 0, .root_slot = l, .leaf = l, .leaf_slot = 0});
  }
  for (int l = 5; l <= 7; ++l) {
    sc.edges.push_back({.root = 4, .root_slot = l, .leaf = l, .leaf_slot = 0});
  }
  return sc;
}

/// Drop every data packet whose endpoints are both inside neighborhood A
/// ({0,1,2,3}); everything else flows.
ClusterConfig faulted_neighborhood_cfg() {
  ClusterConfig cfg;
  cfg.nodes = 8;
  cfg.reliability.enabled = true;
  cfg.reliability.timeout_us = 5.0;
  cfg.reliability.max_attempts = 2;
  cfg.network.faults.script = [](const Packet& p) {
    const bool inside_a = p.from <= 3 && p.to <= 3;
    return WireFault{.drop = p.kind == PacketKind::kData && inside_a};
  };
  return cfg;
}

TEST(StarForestChaos, FaultsInOneNeighborhoodLeaveDisjointNeighborhoodsIntact) {
  const Scenario sc = two_neighborhoods();
  const Outcome oracle = run_dense_oracle(sc);

  ClusterConfig cfg = faulted_neighborhood_cfg();
  Cluster cluster(cfg);
  StarForestConfig sf_cfg;
  sf_cfg.on_incomplete = StarForestConfig::OnIncomplete::kPartial;
  StarForest sf(cluster, sc.edges, sf_cfg);

  SlotMap leaves;
  sf.bcast([](int n, std::int32_t s) { return seed_root(n, s); },
           [&](int n, std::int32_t s, std::uint64_t v) { leaves[{n, s}] = v; });

  // Every neighborhood-A edge failed; every neighborhood-B edge holds
  // the oracle's value.
  const std::vector<int> expected_failures = {0, 1, 2};
  EXPECT_EQ(std::vector<int>(sf.last_failures().begin(), sf.last_failures().end()),
            expected_failures);
  for (int l = 1; l <= 3; ++l) {
    EXPECT_FALSE(leaves.contains({l, 0})) << "faulted leaf " << l << " stored";
  }
  for (int l = 5; l <= 7; ++l) {
    EXPECT_EQ(leaves.at({l, 0}), oracle.bcast_leaves.at({l, 0})) << "leaf " << l;
  }

  // The failures are typed, recorded, and confined to neighborhood A.
  ASSERT_FALSE(cluster.delivery_failures().empty());
  for (const DeliveryFailure& f : cluster.delivery_failures()) {
    EXPECT_LE(f.from, 3);
    EXPECT_LE(f.to, 3);
  }

  // Reduce in the opposite direction: leaves -> roots.  Root 0 keeps its
  // seed (nothing arrived); root 4 combines exactly the oracle's way.
  SlotMap acc;
  sf.reduce([](int n, std::int32_t s) { return seed_leaf(n, s); },
            [&](int n, std::int32_t s) { return slot_or_seed(acc, n, s); },
            [&](int n, std::int32_t s, std::uint64_t v) { acc[{n, s}] = v; },
            chain_op);
  EXPECT_EQ(sf.last_failures().size(), 3u);
  for (int l = 1; l <= 3; ++l) EXPECT_FALSE(acc.contains({0, l}));
  for (int l = 5; l <= 7; ++l) {
    EXPECT_EQ(acc.at({4, l}), oracle.reduced_roots.at({4, l})) << "root slot " << l;
  }

  // The whole fleet stayed live: a fresh op on neighborhood B alone
  // completes with no new failures.
  const std::size_t failures_before = cluster.delivery_failures().size();
  Scenario b_only{"b_only", 8, {}};
  for (int l = 5; l <= 7; ++l) {
    b_only.edges.push_back({.root = 4, .root_slot = l, .leaf = l, .leaf_slot = 0});
  }
  StarForestConfig b_cfg;
  b_cfg.comm = 0x7D;  // Its own communicator, away from the faulted forest.
  StarForest sf_b(cluster, b_only.edges, b_cfg);
  SlotMap b_leaves;
  sf_b.bcast([](int n, std::int32_t s) { return seed_root(n, s); },
             [&](int n, std::int32_t s, std::uint64_t v) { b_leaves[{n, s}] = v; });
  EXPECT_EQ(cluster.delivery_failures().size(), failures_before);
  for (int l = 5; l <= 7; ++l) {
    EXPECT_EQ(b_leaves.at({l, 0}), seed_root(4, l));
  }
}

TEST(StarForestChaos, PartialFetchAndOpAppliesOnlyArrivedOperands) {
  const Scenario sc = two_neighborhoods();
  ClusterConfig cfg = faulted_neighborhood_cfg();
  Cluster cluster(cfg);
  StarForestConfig sf_cfg;
  sf_cfg.on_incomplete = StarForestConfig::OnIncomplete::kPartial;
  StarForest sf(cluster, sc.edges, sf_cfg);

  SlotMap roots;
  SlotMap fetched;
  sf.fetch_and_op([](int n, std::int32_t s) { return seed_leaf(n, s); },
                  [&](int n, std::int32_t s) { return slot_or_seed(roots, n, s); },
                  [&](int n, std::int32_t s, std::uint64_t v) { roots[{n, s}] = v; },
                  [&](int n, std::int32_t s, std::uint64_t v) { fetched[{n, s}] = v; },
                  chain_op);

  // Neighborhood A's operands never reached root 0: its slots are
  // untouched and its leaves fetched nothing.
  for (int l = 1; l <= 3; ++l) {
    EXPECT_FALSE(roots.contains({0, l}));
    EXPECT_FALSE(fetched.contains({l, 0}));
  }
  // Neighborhood B behaves exactly like the fault-free run: each root slot
  // is distinct, so fetched is the seed and the slot holds one application.
  for (int l = 5; l <= 7; ++l) {
    EXPECT_EQ(fetched.at({l, 0}), seed_root(4, l));
    EXPECT_EQ(roots.at({4, l}), chain_op(seed_root(4, l), seed_leaf(l, 0)));
  }
  EXPECT_EQ(sf.last_failures().size(), 3u);
}

TEST(StarForestChaos, CancelledEdgesCannotStealLaterEpochTraffic) {
  // Op 1 runs with neighborhood A dead (its posted receives are cancelled);
  // the fault is then lifted.  Under ordering-preserving semantics the
  // reliability channel strands op 2's first message per A pair behind the
  // abandoned sequence gap (docs/faults.md) — that resyncs the watermark,
  // so op 3, which reuses op 1's tag epoch, completes with clean values on
  // every edge.  Without receive cancellation op 1's stale posts would
  // capture op 3's identically-tagged messages instead.
  const Scenario sc = two_neighborhoods();
  bool faulted = true;
  ClusterConfig cfg;
  cfg.nodes = 8;
  cfg.reliability.enabled = true;
  cfg.reliability.timeout_us = 5.0;
  cfg.reliability.max_attempts = 2;
  cfg.network.faults.script = [&faulted](const Packet& p) {
    const bool inside_a = p.from <= 3 && p.to <= 3;
    return WireFault{.drop = faulted && p.kind == PacketKind::kData && inside_a};
  };
  Cluster cluster(cfg);
  StarForestConfig sf_cfg;
  sf_cfg.on_incomplete = StarForestConfig::OnIncomplete::kPartial;
  StarForest sf(cluster, sc.edges, sf_cfg);

  SlotMap leaves;
  sf.bcast([](int n, std::int32_t s) { return seed_root(n, s); },
           [&](int n, std::int32_t s, std::uint64_t v) { leaves[{n, s}] = v; });
  EXPECT_EQ(sf.last_failures().size(), 3u);

  faulted = false;

  // Round 2: the A pairs' sequence gap (op 1's abandoned packets) strands
  // one message per pair at quiescence, resynchronizing the watermark.
  leaves.clear();
  sf.bcast([](int n, std::int32_t s) { return seed_root(n, s) + 1; },
           [&](int n, std::int32_t s, std::uint64_t v) { leaves[{n, s}] = v; });
  EXPECT_EQ(sf.last_failures().size(), 3u);
  for (int l = 5; l <= 7; ++l) {
    EXPECT_EQ(leaves.at({l, 0}), seed_root(4, l) + 1);
  }

  // Round 3 reuses op 1's tag epoch.  Every edge — including the A edges
  // whose op-1 receives were cancelled — delivers the fresh value.
  leaves.clear();
  sf.bcast([](int n, std::int32_t s) { return seed_root(n, s) + 2; },
           [&](int n, std::int32_t s, std::uint64_t v) { leaves[{n, s}] = v; });
  EXPECT_TRUE(sf.last_failures().empty());
  for (const SfEdge& e : sc.edges) {
    EXPECT_EQ(leaves.at({e.leaf, e.leaf_slot}), seed_root(e.root, e.root_slot) + 2);
  }
}

// ---------------------------------------------------------------------------
// Cluster::cancel (the endpoint wiring StarForest partial mode rides on).

TEST(ClusterCancel, RemovesPendingReceiveAndReportsIdle) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  Cluster cluster(cfg);
  const RecvHandle h = cluster.irecv(1, 0, 7);
  EXPECT_EQ(cluster.node_activity(1), NodeActivity::kStarved);
  EXPECT_TRUE(cluster.cancel(h));
  EXPECT_EQ(cluster.node_activity(1), NodeActivity::kIdle);
  EXPECT_FALSE(cluster.cancel(h));  // Already gone.
  EXPECT_FALSE(cluster.test(h));
  // A message for the cancelled receive parks as unexpected, never matches.
  cluster.send(0, 1, 7, 123);
  cluster.run_until_quiescent();
  EXPECT_FALSE(cluster.test(h));
  EXPECT_EQ(cluster.stats().matches, 0u);
  const auto report = cluster.snapshot();
  EXPECT_EQ(report.counters.at("runtime.cluster.receives_cancelled"), 1u);
}

TEST(ClusterCancel, CompletedReceiveIsNotCancellable) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  Cluster cluster(cfg);
  const RecvHandle h = cluster.irecv(1, 0, 3);
  cluster.send(0, 1, 3, 99);
  (void)cluster.wait(h);
  EXPECT_FALSE(cluster.cancel(h));
  EXPECT_EQ(cluster.result(h)->payload, 99u);
}

}  // namespace
}  // namespace simtmsg::runtime
