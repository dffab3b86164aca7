#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <numeric>

namespace hostbench {

namespace {

using simtmsg::matching::kAnySource;
using simtmsg::matching::kAnyTag;
using simtmsg::matching::SemanticsConfig;
using simtmsg::runtime::ClusterConfig;

/// Stateless splitmix64-style hash of (seed, superstep, a, b).
std::uint64_t mix(std::uint64_t seed, std::uint64_t superstep, std::uint64_t a,
                  std::uint64_t b = 0) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL;
  for (const std::uint64_t v : {superstep, a, b}) {
    z ^= v + 0x9E3779B97F4A7C15ULL + (z << 6) + (z >> 2);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
  }
  return z;
}

/// Pins what the environment could otherwise change (SIMTMSG_SCHEDULER,
/// SIMTMSG_STREAMS): one serial shard per node, event-driven scheduling.
ClusterConfig base_config(int nodes, SemanticsConfig semantics) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.semantics = semantics;
  cfg.policy = simtmsg::simt::ExecutionPolicy::serial();
  cfg.shards_per_node = 1;
  cfg.scheduler = simtmsg::runtime::SchedulerPolicy::kEventDriven;
  cfg.max_streams = 64;
  return cfg;
}

void add_send(Plan& plan, int from, int to, int tag, int stream) {
  const auto index = static_cast<std::uint32_t>(plan.sends.size());
  plan.sends.push_back({from, to, tag, stream, make_payload(plan.superstep, index)});
}

/// The exact receive for the send just added.
RecvOp exact_for_last(const Plan& plan) {
  const SendOp& s = plan.sends.back();
  return {s.to, s.from, s.tag, s.stream, static_cast<std::int32_t>(plan.sends.size() - 1)};
}

// ring_bulk: 4096 nodes, each sends 16 messages (tags 0..15) to one of its
// 7 nearest successors, picked from (seed, superstep, node), against exact
// pre-posted receives.
constexpr int kRingNodes = 4096;
constexpr int kRingMsgs = 16;

ClusterConfig ring_config(std::uint64_t /*seed*/) {
  return base_config(kRingNodes, SemanticsConfig::relaxed_unordered());
}

void ring_generate(std::uint64_t seed, std::uint64_t superstep, Plan& plan) {
  for (int n = 0; n < kRingNodes; ++n) {
    const int to = (n + 1 + static_cast<int>(mix(seed, superstep, n) % 7)) % kRingNodes;
    for (int k = 0; k < kRingMsgs; ++k) {
      add_send(plan, n, to, k, 0);
      plan.early.push_back(exact_for_last(plan));
    }
  }
}

// lossy_streams: 64 nodes, partitioned semantics (ordering on, no
// wildcards), reliability over a dropping/duplicating/corrupting jittered
// fabric.  Each node sends 16 messages to 8 distinct neighbours (two each),
// message k on stream k % 8, against exact pre-posted receives.
constexpr int kLossyNodes = 64;
constexpr int kLossyNeighbours = 8;
constexpr int kLossyMsgs = 16;
constexpr int kLossyStreams = 8;

ClusterConfig lossy_config(std::uint64_t seed) {
  ClusterConfig cfg = base_config(kLossyNodes, SemanticsConfig::partitioned());
  cfg.network.jitter_us = 0.5;
  cfg.network.seed = seed;
  cfg.network.faults.drop_prob = 0.02;
  cfg.network.faults.dup_prob = 0.01;
  cfg.network.faults.corrupt_prob = 0.005;
  cfg.reliability.enabled = true;
  cfg.reliability.timeout_us = 10.0;
  cfg.reliability.max_attempts = 32;
  return cfg;
}

void lossy_generate(std::uint64_t seed, std::uint64_t superstep, Plan& plan) {
  std::array<int, kLossyNodes - 1> offsets{};
  for (int n = 0; n < kLossyNodes; ++n) {
    // First kLossyNeighbours of a seeded Fisher-Yates shuffle of 1..63.
    std::iota(offsets.begin(), offsets.end(), 1);
    for (int i = 0; i < kLossyNeighbours; ++i) {
      const auto span = static_cast<std::uint64_t>(offsets.size()) - i;
      const auto j = i + static_cast<int>(mix(seed, superstep, n, i) % span);
      std::swap(offsets[i], offsets[j]);
    }
    for (int k = 0; k < kLossyMsgs; ++k) {
      const int to = (n + offsets[k / 2]) % kLossyNodes;
      add_send(plan, n, to, k, k % kLossyStreams);
      plan.early.push_back(exact_for_last(plan));
    }
  }
}

// wildcard_deep: 4 nodes, fully compliant semantics (matrix scan/reduce).
// Every node receives 1024 messages from its 3 peers, each with a tag unique
// to that node.  8% of the receives are ANY_SOURCE on that tag, 7% ANY_TAG
// on the source; half are posted before the messages and half after.
//
// Deadlock freedom under MPI matching: a tag names exactly one message, so
// exact and ANY_SOURCE receives can only take their own.  ANY_TAG receives
// are posted after every other receive of their half, and each half's
// messages from a source are sent (and, per-pair FIFO, arrive) before the
// other half's, so an ANY_TAG receive always finds one of its own half's
// unnamed messages from that source first.
constexpr int kDeepNodes = 4;
constexpr int kDeepMsgs = 1024;

ClusterConfig deep_config(std::uint64_t /*seed*/) {
  return base_config(kDeepNodes, SemanticsConfig::compliant());
}

void deep_generate(std::uint64_t seed, std::uint64_t superstep, Plan& plan) {
  enum Kind : int { kExact, kAnySrc, kAnyTg };
  struct Pick {
    int node, src, tag, kind;
  };
  std::array<std::vector<Pick>, 2> halves;  // [0] posted early, [1] late.
  for (int n = 0; n < kDeepNodes; ++n) {
    for (int j = 0; j < kDeepMsgs; ++j) {
      const std::uint64_t h = mix(seed, superstep, n, j);
      const auto roll = static_cast<int>(h % 1000);
      const int kind = roll < 80 ? kAnySrc : roll < 150 ? kAnyTg : kExact;
      halves[(h >> 32) & 1].push_back({n, (n + 1 + j % 3) % kDeepNodes, j, kind});
    }
  }
  for (int half = 0; half < 2; ++half) {
    auto& receives = half == 0 ? plan.early : plan.late;
    std::vector<RecvOp> any_tag;
    for (const Pick& p : halves[half]) {
      add_send(plan, p.src, p.node, p.tag, 0);
      RecvOp r = exact_for_last(plan);
      if (p.kind == kAnySrc) r.src = kAnySource;
      if (p.kind == kAnyTg) {
        r.tag = kAnyTag;
        r.msg = -1;
        any_tag.push_back(r);
      } else {
        receives.push_back(r);
      }
    }
    receives.insert(receives.end(), any_tag.begin(), any_tag.end());
  }
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {.name = "ring_bulk",
       .checkpoint_supersteps = 100,
       .max_supersteps = 300,
       .setup_reps = 7,
       .config = ring_config,
       .generate = ring_generate},
      {.name = "lossy_streams",
       .checkpoint_supersteps = 400,
       .setup_reps = 15,
       .config = lossy_config,
       .generate = lossy_generate},
      {.name = "wildcard_deep",
       .checkpoint_supersteps = 200,
       .setup_reps = 15,
       .config = deep_config,
       .generate = deep_generate},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace hostbench
