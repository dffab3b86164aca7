// Sparse neighborhood exchange: the paper's Table I communication shape.
//
// Real MPI applications talk to only 4-79 peer ranks out of thousands
// (LULESH ~13, NEKBONE ~23, CESM up to 79) — a sparse all-to-all, not a
// dense collective.  This example builds that shape directly as a
// runtime::StarForest (docs/collectives.md): every node roots `degree`
// edges to an irregular neighbor set, then drives the three sparse
// operations and verifies each against locally computed expectations:
//
//   bcast         push one value to every neighbor,
//   reduce        combine the neighbors' contributions (sum, edge order),
//   fetch_and_op  atomically increment a counter slot at each neighbor and
//                 fetch the pre-increment value (ticket locks, Section II).
//
// Everything flows through the configured matching engine and the
// cluster scheduler as ordinary point-to-point traffic.
//
// Build & run:  ./build/examples/neighborhood_exchange
#include <cstdint>
#include <iostream>
#include <map>
#include <vector>

#include "runtime/endpoint.hpp"
#include "runtime/star_forest.hpp"

namespace {

using namespace simtmsg;

constexpr int kNodes = 24;
constexpr int kDegree = 13;  // LULESH's neighborhood size (Table I).

/// Irregular but deterministic neighbor choice: node n's k-th neighbor.
int neighbor_of(int n, int k) {
  return (n + 1 + (k * k + 3 * k) / 2) % kNodes;
}

}  // namespace

int main() {
  runtime::ClusterConfig cfg;
  cfg.nodes = kNodes;
  runtime::Cluster cluster(cfg);

  // Slot convention: slot k on a root is its k-th outgoing edge; a leaf's
  // mailbox slot encodes the sending edge (n * kDegree + k) — some nodes
  // pick the same neighbor twice, and parallel edges must not collide.
  std::vector<runtime::SfEdge> edges;
  for (int n = 0; n < kNodes; ++n) {
    for (int k = 0; k < kDegree; ++k) {
      edges.push_back({.root = n, .root_slot = k, .leaf = neighbor_of(n, k),
                       .leaf_slot = static_cast<std::int32_t>(n * kDegree + k)});
    }
  }
  runtime::StarForest forest(cluster, edges);

  int failures = 0;
  const auto check = [&](bool ok, const char* what) {
    if (!ok) {
      std::cerr << "FAIL: " << what << "\n";
      ++failures;
    }
  };

  // ---- bcast: push a distinct value down every edge -------------------------
  // Root n sends n*100+k on its k-th edge; the leaf files it under the
  // edge's mailbox slot, so expectations are directly recomputable.
  std::map<std::pair<int, std::int32_t>, std::uint64_t> inbox;
  forest.bcast(
      [](int n, std::int32_t k) {
        return static_cast<std::uint64_t>(n) * 100 + static_cast<std::uint64_t>(k);
      },
      [&](int n, std::int32_t slot, std::uint64_t v) { inbox[{n, slot}] = v; });
  check(forest.last_failures().empty(), "bcast reported failures");
  for (int n = 0; n < kNodes; ++n) {
    for (int k = 0; k < kDegree; ++k) {
      const int leaf = neighbor_of(n, k);
      const auto it = inbox.find({leaf, static_cast<std::int32_t>(n * kDegree + k)});
      check(it != inbox.end() &&
                it->second == static_cast<std::uint64_t>(n) * 100 +
                                  static_cast<std::uint64_t>(k),
            "bcast value mismatch");
    }
  }

  // ---- reduce: sum each node's incoming contributions -----------------------
  // Every edge contributes its leaf id + 1; root slot k accumulates just
  // its own edge, so the expectation is neighbor_of(n, k) + 1.
  std::map<std::pair<int, std::int32_t>, std::uint64_t> sums;
  forest.reduce(
      [](int leaf, std::int32_t) { return static_cast<std::uint64_t>(leaf) + 1; },
      [&](int n, std::int32_t k) {
        const auto it = sums.find({n, k});
        return it != sums.end() ? it->second : 0ull;
      },
      [&](int n, std::int32_t k, std::uint64_t v) { sums[{n, k}] = v; },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  check(forest.last_failures().empty(), "reduce reported failures");
  for (int n = 0; n < kNodes; ++n) {
    for (int k = 0; k < kDegree; ++k) {
      check(sums.at({n, k}) ==
                static_cast<std::uint64_t>(neighbor_of(n, k)) + 1,
            "reduce sum mismatch");
    }
  }

  // ---- fetch_and_op: distributed ticket counters ----------------------------
  // Invert the forest so each node's single counter slot is the root and
  // its in-neighbors take tickets: every leaf atomically adds 1 and
  // fetches the ticket number it got.  Tickets at each counter must come
  // out dense: {0, 1, ..., in_degree-1}.
  std::vector<runtime::SfEdge> inverse;
  for (const runtime::SfEdge& e : edges) {
    inverse.push_back({.root = e.leaf, .root_slot = 0, .leaf = e.root, .leaf_slot = e.leaf_slot});
  }
  runtime::StarForest tickets(cluster, inverse);
  std::vector<std::uint64_t> counter(kNodes, 0);
  std::map<std::pair<int, std::int32_t>, std::uint64_t> ticket_of;
  tickets.fetch_and_op(
      [](int, std::int32_t) { return 1ull; },
      [&](int n, std::int32_t) { return counter[static_cast<std::size_t>(n)]; },
      [&](int n, std::int32_t, std::uint64_t v) { counter[static_cast<std::size_t>(n)] = v; },
      [&](int n, std::int32_t slot, std::uint64_t v) { ticket_of[{n, slot}] = v; },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  check(tickets.last_failures().empty(), "fetch_and_op reported failures");
  for (int n = 0; n < kNodes; ++n) {
    const auto in_degree = static_cast<std::uint64_t>(tickets.degree(n));
    check(counter[static_cast<std::size_t>(n)] == in_degree,
          "counter did not reach its in-degree");
  }
  // Each counter's issued tickets are a permutation of 0..in_degree-1.
  std::map<int, std::vector<bool>> seen;
  for (int n = 0; n < kNodes; ++n) {
    seen[n] = std::vector<bool>(static_cast<std::size_t>(tickets.degree(n)), false);
  }
  for (const runtime::SfEdge& e : inverse) {
    const auto it = ticket_of.find({e.leaf, e.leaf_slot});
    if (it == ticket_of.end() || it->second >= seen[e.root].size() ||
        seen[e.root][static_cast<std::size_t>(it->second)]) {
      check(false, "tickets not a dense permutation");
      break;
    }
    seen[e.root][static_cast<std::size_t>(it->second)] = true;
  }

  // ---- Report ---------------------------------------------------------------
  const auto s = cluster.stats();
  std::cout << "sparse neighborhood exchange: " << kNodes << " nodes, degree "
            << kDegree << " (Table I), " << forest.nedges() + tickets.nedges()
            << " forest edges\n"
            << "bcast + reduce + fetch_and_op: "
            << forest.messages_used() + tickets.messages_used()
            << " messages vs " << 3 * kNodes * (kNodes - 1)
            << " for dense all-to-all\n"
            << "matches: " << s.matches << ", modelled matching time "
            << s.matching_seconds * 1e6 << " us, virtual cluster time "
            << s.virtual_time_us << " us\n";

  check(s.delivery_failures == 0, "delivery failures on an ideal fabric");
  if (failures != 0) return 1;
  std::cout << "\nOK\n";
  return 0;
}
