// Allocation wall for the Cluster steady state (docs/perf.md): after a few
// warm-up supersteps on a fault-free 8-node cluster, a superstep of
// irecv/send/wait/result calls plus barrier() may allocate only the
// receive-handle table's new pages — at most ⌈N / Cluster::kHandlePage⌉ for
// N receives — under the compliant (matrix) and relaxed (hash) Table II
// rows, with and without unexpected messages.
//
// This binary overrides the global operator new/delete with a counting shim
// (which is why it is its own executable, see tests/CMakeLists.txt); the
// counter is armed only around the steady-state supersteps.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "matching/semantics.hpp"
#include "runtime/endpoint.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n > 0 ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_alloc(std::size_t n, std::align_val_t al) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t align = std::max(static_cast<std::size_t>(al), sizeof(void*));
  void* p = nullptr;
  if (posix_memalign(&p, align, n > 0 ? n : align) != 0) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) { return counted_alloc(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) { return counted_alloc(n, al); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace simtmsg::runtime {
namespace {

constexpr int kNodes = 8;
constexpr int kPerNode = 64;  ///< Messages each node sends (and receives).
constexpr int kWarmup = 3;
constexpr int kSteady = 6;

/// Pages a run of handle ids [first, last] adds to the table.
std::uint64_t new_pages(std::uint64_t first, std::uint64_t last) {
  const auto pages = [](std::uint64_t ids) {
    return (ids + Cluster::kHandlePage - 1) / Cluster::kHandlePage;
  };
  return pages(last) - pages(first - 1);
}

ClusterConfig ring_config(const matching::SemanticsConfig& sem) {
  ClusterConfig cfg;
  cfg.nodes = kNodes;
  cfg.semantics = sem;
  return cfg;
}

/// One BSP superstep: every node exchanges kPerNode messages with its ring
/// successor.  With unexpected messages allowed, half of the receives are
/// posted after the sends; a quarter use ANY_SOURCE where wildcards are.
class Ring {
 public:
  explicit Ring(const matching::SemanticsConfig& sem)
      : cluster_(ring_config(sem)) {
    handles_.reserve(kNodes * kPerNode);
  }

  /// Runs one superstep; returns its first and last receive handle ids.
  std::pair<std::uint64_t, std::uint64_t> superstep(std::uint64_t round) {
    const matching::SemanticsConfig& sem = cluster_.semantics();
    const int early = sem.unexpected ? kPerNode / 2 : kPerNode;
    handles_.clear();
    post(0, early);
    for (int n = 0; n < kNodes; ++n) {
      for (int t = 0; t < kPerNode; ++t) {
        (void)cluster_.send(n, (n + 1) % kNodes, t, payload(round, n, t));
      }
    }
    post(early, kPerNode);
    for (const RecvHandle h : handles_) (void)cluster_.wait(h);
    for (const RecvHandle h : handles_) {
      const auto r = cluster_.result(h);
      const int src = (h.node + kNodes - 1) % kNodes;
      EXPECT_TRUE(r.has_value() && r->payload == payload(round, src, r->tag))
          << "handle " << h.id;
    }
    cluster_.barrier();
    return {handles_.front().id, handles_.back().id};
  }

 private:
  static std::uint64_t payload(std::uint64_t round, int from, int tag) {
    return (round << 32) | (static_cast<std::uint64_t>(from) << 16) |
           static_cast<std::uint64_t>(tag);
  }

  void post(int tag_begin, int tag_end) {
    const bool wildcards = cluster_.semantics().wildcards;
    for (int n = 0; n < kNodes; ++n) {
      const int src = (n + kNodes - 1) % kNodes;
      for (int t = tag_begin; t < tag_end; ++t) {
        const matching::Rank from = wildcards && t % 4 == 0 ? matching::kAnySource : src;
        handles_.push_back(cluster_.irecv(n, from, t));
      }
    }
  }

  Cluster cluster_;
  std::vector<RecvHandle> handles_;
};

void expect_steady_state_allocates_only_pages(const matching::SemanticsConfig& sem) {
  Ring ring(sem);
  std::uint64_t round = 0;
  for (int i = 0; i < kWarmup; ++i) (void)ring.superstep(round++);
  const std::uint64_t bound =
      (kNodes * kPerNode + Cluster::kHandlePage - 1) / Cluster::kHandlePage;
  std::uint64_t pages_seen = 0;
  for (int i = 0; i < kSteady; ++i) {
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    const auto [first, last] = ring.superstep(round++);
    g_counting.store(false, std::memory_order_relaxed);
    const std::uint64_t allocations = g_allocations.load(std::memory_order_relaxed);
    const std::uint64_t pages = new_pages(first, last);
    pages_seen += pages;
    EXPECT_LE(pages, bound);
    EXPECT_LE(allocations, pages) << "steady-state superstep " << i << " (handles "
                                  << first << ".." << last << ")";
  }
  // The run crosses page boundaries, so the page allowance is exercised.
  EXPECT_GT(pages_seen, 0u);
}

TEST(ClusterZeroAlloc, CompliantMatrix) {
  expect_steady_state_allocates_only_pages(matching::SemanticsConfig::compliant());
}

TEST(ClusterZeroAlloc, CompliantPreposted) {
  expect_steady_state_allocates_only_pages(
      matching::SemanticsConfig::compliant_preposted());
}

TEST(ClusterZeroAlloc, RelaxedUnorderedHash) {
  expect_steady_state_allocates_only_pages(
      matching::SemanticsConfig::relaxed_unordered());
}

TEST(ClusterZeroAlloc, RelaxedUnorderedPreposted) {
  expect_steady_state_allocates_only_pages(
      matching::SemanticsConfig::relaxed_unordered_preposted());
}

}  // namespace
}  // namespace simtmsg::runtime
