// MatchWorkspace: the reusable scratch arena behind the allocation-free
// steady-state matching path.
//
// Every per-call buffer the matchers and the MatchEngine used to heap-
// allocate — per-comm sub-batches and index maps, compaction flag vectors,
// the hash matcher's plan/table storage, the partition fan-out queues —
// lives here instead and is recycled across calls: buffers are
// re-initialized with assign()/resize(), which reuse capacity, so once a
// workspace has seen a workload shape, repeating that shape allocates
// nothing (tests/matching/zero_alloc_test.cpp proves it with a counting
// operator new).
//
// Ownership and thread-safety contract (docs/perf.md):
//   * A workspace belongs to exactly one caller at a time.  MatchEngine
//     owns one for its own steady-state path; the matchers' by-value
//     convenience wrappers (match()/match_queues()) create a transient one
//     per call.
//   * Workspaces are NOT thread-safe; engines are per-thread.  The only
//     internal concurrency is the partition fan-out, which hands each
//     partition its own nested workspace (PartitionWorkspace::per_partition).
//   * Every buffer is fully re-initialized before use, so workspace reuse
//     never changes modelled results: stats, telemetry, and BENCH numbers
//     are bit-identical with a fresh or a recycled workspace.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "matching/device_hash_table.hpp"
#include "matching/envelope.hpp"
#include "matching/queue.hpp"
#include "matching/simt_stats.hpp"
#include "simt/event_counters.hpp"
#include "simt/lane_array.hpp"
#include "simt/launcher.hpp"
#include "telemetry/telemetry.hpp"

namespace simtmsg::matching {

class MatchWorkspace;

/// One warp-wide hash-table operation recorded by the HashMatcher's plan
/// pass: enough to replay the exact counter stream of the fused operation
/// without touching the table.  (Lives here so HashWorkspace can recycle
/// the plan storage across calls.)
struct HashGroupPlan {
  bool is_insert = false;
  int warp = 0;        ///< Warp slot within the CTA.
  int live = 0;        ///< Active lanes (low mask).
  simt::LaneSize idx;  ///< Per-lane global element indices (load coalescing).
  simt::LaneU32 keys;
  DeviceHashTable::InsertOutcome ins;
  DeviceHashTable::ProbeOutcome probe;
};

/// Scratch for MatrixMatcher: gathered element words (AoS entry point),
/// original-index maps and per-pass flags of the queue drain.
struct MatrixWorkspace {
  std::vector<std::uint64_t> msg_words;
  std::vector<std::uint64_t> req_words;
  std::vector<std::uint32_t> msg_orig;
  std::vector<std::uint32_t> req_orig;
  std::vector<std::uint8_t> msg_flags;
  std::vector<std::uint8_t> req_flags;
  /// Queue copies backing the batch interface (match() over spans).
  MessageQueue batch_msgs;
  RecvQueue batch_reqs;
  /// Per-window stats slot reused by the drain loop.
  SimtMatchStats window;
};

/// Scratch for HashMatcher: element words, pending/deferred worklists, the
/// per-CTA operation plans, the device hash table itself (grow-only), and
/// the launch scratch for the cost-replay kernel.
struct HashWorkspace {
  std::vector<std::uint64_t> msg_words;
  std::vector<std::uint64_t> req_words;
  std::vector<std::uint32_t> pending_reqs;
  std::vector<std::uint32_t> pending_msgs;
  std::vector<std::uint32_t> deferred_reqs;
  std::vector<std::uint32_t> deferred_msgs;
  std::vector<std::vector<HashGroupPlan>> plan;  ///< One vector per CTA.
  DeviceHashTable table;
  simt::LaunchScratch launch;
};

/// Scratch for PartitionedMatcher: the per-partition queue pairs and index
/// maps, per-partition run results and telemetry stages, the wave-schedule
/// accumulators, and one nested MatchWorkspace per partition (partitions
/// run concurrently, so they cannot share scratch).
struct PartitionWorkspace {
  PartitionWorkspace();
  ~PartitionWorkspace();
  PartitionWorkspace(const PartitionWorkspace&) = delete;
  PartitionWorkspace& operator=(const PartitionWorkspace&) = delete;

  struct Run {
    bool busy = false;
    SimtMatchStats stats;
  };
  struct Cost {
    double cycles = 0.0;
    int warps = 1;
  };

  std::vector<MessageQueue> part_msgs;
  std::vector<RecvQueue> part_reqs;
  std::vector<std::vector<std::uint32_t>> msg_map;
  std::vector<std::vector<std::uint32_t>> req_map;
  std::vector<Run> runs;
  std::vector<telemetry::Registry> stages;
  std::vector<Cost> costs;
  std::vector<double> sm_cycles;
  std::vector<std::unique_ptr<MatchWorkspace>> per_partition;

  /// The nested workspace for partition `p`, created on first use.
  [[nodiscard]] MatchWorkspace& partition_workspace(std::size_t p);
};

/// Scratch for PatternTableMatcher: four open-addressed class tables (one
/// per wildcard class of the posted receives), the FIFO bucket links
/// threaded through the request indices, and the classification scratch.
/// Slots identify their key through a representative request index (`rep`),
/// which stays valid as a tombstone after the bucket drains, keeping linear
/// probing correct without storing envelopes twice.
struct PatternWorkspace {
  struct Table {
    std::vector<std::int32_t> rep;   ///< Slot -> first request ever inserted, -1 empty.
    std::vector<std::int32_t> head;  ///< Slot -> oldest live request, -1 drained.
    std::vector<std::int32_t> tail;  ///< Slot -> newest live request.
    std::size_t mask = 0;            ///< Slot count - 1 (power of two).
    std::size_t live = 0;            ///< Live (unconsumed) requests in this class.
  };
  Table tables[4];
  std::vector<std::int32_t> next;      ///< Request -> next request in its bucket.
  std::vector<std::uint8_t> req_class; ///< Request -> wildcard class (0..3).
  /// Per-CTA counter scratch for the vector-overload timing-model calls
  /// whose CTAs carry distinct counters.  (The scalar estimate() overload
  /// is allocation-free on its own and needs no scratch.)
  std::vector<simt::EventCounters> cta_events;
};

/// Scratch for the MatchEngine's multi-bucket split: an open-addressed
/// (comm, stream) -> dense-index table plus counting-sort storage that
/// scatters both spans into bucket-contiguous order in a single pass each
/// (O(M + R + C)).  The bucket key packs stream into the high half and
/// comm into the low half; default-stream traffic therefore keys as the
/// bare 32-bit comm and hashes exactly as the pre-stream comm split did.
struct EngineWorkspace {
  std::vector<std::uint64_t> keys;  ///< Distinct (stream, comm) keys, first-appearance order.
  /// Open-addressed table mapping a bucket key to its dense index in
  /// `keys` (power-of-two sized, linear probing, -1 = empty slot).
  std::vector<std::uint64_t> slot_key;
  std::vector<std::int32_t> slot_index;
  std::vector<std::uint32_t> msg_bucket;  ///< Per-message bucket index.
  std::vector<std::uint32_t> req_bucket;  ///< Per-request bucket index.
  std::vector<std::uint32_t> msg_offset;  ///< Per-bucket begin offsets (C + 1).
  std::vector<std::uint32_t> req_offset;
  std::vector<Message> sub_msgs;          ///< Bucket-contiguous scatter.
  std::vector<RecvRequest> sub_reqs;
  std::vector<std::uint32_t> msg_map;     ///< Original indices, same order.
  std::vector<std::uint32_t> req_map;
  SimtMatchStats sub;                     ///< Per-bucket stats slot.
};

class MatchWorkspace {
 public:
  MatchWorkspace();
  ~MatchWorkspace();
  MatchWorkspace(const MatchWorkspace&) = delete;
  MatchWorkspace& operator=(const MatchWorkspace&) = delete;

  /// Generic compaction flags (the base Matcher queue drain and the
  /// engine's multi-comm compaction; the matrix drain has its own pair).
  std::vector<std::uint8_t> msg_flags;
  std::vector<std::uint8_t> req_flags;

  MatrixWorkspace matrix;
  PartitionWorkspace partition;
  HashWorkspace hash;
  PatternWorkspace pattern;
  EngineWorkspace engine;
};

}  // namespace simtmsg::matching
