// ShardedMatchEngine: a node's matching work spread over several
// independent MatchEngine shards — the runtime form of the paper's
// multi-SM remark (Section VI-A: "If multiple SMs were used, the
// performance would be increasing linearly since all CTAs would be running
// in parallel").  Each shard models one communication SM with its own
// MatchEngine (and therefore its own workspace and telemetry totals).
//
// Routing: messages and concrete-source receives are assigned to shards by
// a static (comm, source-rank, stream) partition map — shard_of().  MPI's
// per-(src, comm) ordering survives because a given (comm, src, stream)
// traffic class always lands on the same shard, and receives can only
// compete for a message when they could both match it, which (absent
// MPI_ANY_SOURCE) confines competition to a single (comm, src, stream)
// class.  Match results are therefore bit-identical for every shard count.
//
// Stream affinity (docs/streams.md): the map adds the stream id AFTER the
// (comm, src) mix, so default-stream routing is byte-identical to the
// pre-stream map while distinct streams of one (comm, src) pair rotate
// deterministically across consecutive shards — concurrent producer
// streams spread over the shard pool and their matches run in parallel.
//
// MPI_ANY_SOURCE is the one receive that spans shards (it is legal only
// when the semantics permit wildcards — the fully compliant rows of
// Table II).  Under the matrix algorithm a batch or queue state containing
// one pins the engine into a serialized all-shard pass: the entire batch
// runs through shard 0 as a single MatchEngine call, exactly as an
// unsharded engine would.  This mirrors the paper's observation that rank
// partitioning is unlocked by prohibiting the source wildcard.
//
// Under the pattern-table algorithm (SemanticsConfig::pattern_table) the
// wildcard no longer serializes: every ANY_SOURCE receive is replicated as
// a stub into each shard's wildcard tables (in its global posted
// position), the shards run in parallel, and the rare cross-shard races —
// two shards claiming the same stub — are reconciled by a deterministic
// fixpoint: claims are scanned in global message-arrival order, everything
// before the first conflict is final (the earliest-claim theorem,
// docs/wildcards.md), the loser drops the stub and re-runs.  Results stay
// bit-identical to an unsharded engine for every shard and thread count.
//
// Determinism contract (docs/sharding.md):
//   * match results / completions: bit-identical across shard counts and
//     host thread counts (hash-table semantics carry the same safety-valve
//     exception as the fuzz oracle on partial-match workloads);
//   * telemetry snapshots and modelled time: bit-identical across host
//     thread counts for a fixed shard count (shards are fanned out on the
//     util::ThreadPool and merged in shard-index order);
//   * modelled cycles/seconds: the max over the shards' independent SMs —
//     this is the quantity the fig5_runtime_shards bench sweeps.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "matching/engine.hpp"
#include "matching/queue.hpp"
#include "matching/semantics.hpp"
#include "matching/simt_stats.hpp"
#include "simt/device_spec.hpp"
#include "simt/launcher.hpp"
#include "telemetry/report.hpp"

namespace simtmsg::matching {

class ShardedMatchEngine {
 public:
  struct Options {
    /// Independent matcher shards (communication SMs) per engine; 1 is
    /// bit-identical to a plain MatchEngine in results, snapshots, and
    /// allocation behavior.
    int shards = 1;
    /// Host threads the shard fan-out may use.  Purely a wall-clock knob:
    /// results and telemetry are bit-identical for every thread count.
    simt::ExecutionPolicy policy = simt::ExecutionPolicy::serial();
  };

  ShardedMatchEngine(const simt::DeviceSpec& spec, SemanticsConfig cfg, Options opt);
  ~ShardedMatchEngine();

  ShardedMatchEngine(ShardedMatchEngine&&) noexcept;
  ShardedMatchEngine& operator=(ShardedMatchEngine&&) noexcept;
  ShardedMatchEngine(const ShardedMatchEngine&) = delete;
  ShardedMatchEngine& operator=(const ShardedMatchEngine&) = delete;

  /// Batch-match with the same semantics enforcement as MatchEngine::match:
  /// wildcard receives are rejected when prohibited, and unmatched messages
  /// are rejected when unexpected messages are prohibited.
  [[nodiscard]] SimtMatchStats match(std::span<const Message> msgs,
                                     std::span<const RecvRequest> reqs) const;

  /// Out-parameter form; the steady-state entry point.  All scratch (the
  /// per-shard route queues, index maps, stats slots, and each shard's
  /// MatchEngine workspace) is recycled, so repeated calls with a stable
  /// workload shape perform zero heap allocations.
  void match(std::span<const Message> msgs, std::span<const RecvRequest> reqs,
             SimtMatchStats& out) const;

  /// Drain two live queues: match as much as possible and remove matched
  /// elements from both.  Result indices refer to the queues' contents
  /// before the call.  Leftovers are not an error (the progress engine
  /// decides how to treat unexpected messages mid-flight).
  [[nodiscard]] SimtMatchStats match_queues(MessageQueue& mq, RecvQueue& rq) const;

  /// Out-parameter form of match_queues(); allocation-free in steady state.
  void match_queues(MessageQueue& mq, RecvQueue& rq, SimtMatchStats& out) const;

  /// Batched ingestion (mirrors MatchEngine::match_batch): append the
  /// arrivals to the live queues with bulk sequence stamping, then run ONE
  /// match_queues pass, paying routing, the wildcard scan, and telemetry
  /// staging once per batch.  Result indices refer to the queues after the
  /// appends; allocation-free in steady state.
  void match_batch(std::span<const Message> msg_arrivals,
                   std::span<const RecvRequest> req_arrivals, MessageQueue& mq,
                   RecvQueue& rq, SimtMatchStats& out) const;

  [[nodiscard]] SimtMatchStats match_batch(std::span<const Message> msg_arrivals,
                                           std::span<const RecvRequest> req_arrivals,
                                           MessageQueue& mq, RecvQueue& rq) const;

  [[nodiscard]] const SemanticsConfig& semantics() const noexcept { return cfg_; }
  [[nodiscard]] Algorithm algorithm_kind() const noexcept;
  [[nodiscard]] int shard_count() const noexcept;

  /// The static partition map: which shard owns the (comm, src, stream)
  /// traffic class.  Stable for the engine's lifetime (it depends only on
  /// the shard count).  Stream 0 reproduces the pre-stream map exactly;
  /// distinct streams of one (comm, src) pair rotate across consecutive
  /// shards.
  [[nodiscard]] int shard_of(CommId comm, Rank src, StreamId stream) const noexcept;

  /// Telemetry totals merged over every shard in shard-index order.  With
  /// one shard this is exactly the underlying MatchEngine's snapshot.
  [[nodiscard]] telemetry::TelemetryReport snapshot() const;

  /// One shard's own totals (diagnostics; shard in [0, shard_count())).
  [[nodiscard]] telemetry::TelemetryReport shard_snapshot(int shard) const;

  /// How many match calls ran serialized because an MPI_ANY_SOURCE receive
  /// was present, vs. fanned out across the shards, vs. fanned out with
  /// replicated wildcard stubs (pattern-table algorithm).  Always zero for
  /// a single-shard engine (nothing to serialize or fan out).  The same
  /// tallies are staged as `matching.shard.*` telemetry counters.
  [[nodiscard]] std::uint64_t serialized_passes() const noexcept;
  [[nodiscard]] std::uint64_t sharded_passes() const noexcept;
  [[nodiscard]] std::uint64_t replicated_passes() const noexcept;

 private:
  struct Impl;

  /// Core of the sharded path: route both spans, fan the shards out under
  /// the policy, and merge results/telemetry in shard-index order.
  void match_shards_into(std::span<const Message> msgs,
                         std::span<const RecvRequest> reqs, SimtMatchStats& out) const;

  /// The pattern-table wildcard path: replicate ANY_SOURCE stubs into every
  /// shard, fan out, reconcile cross-shard stub claims to a fixpoint.
  void match_replicated_into(std::span<const Message> msgs,
                             std::span<const RecvRequest> reqs, SimtMatchStats& out) const;

  /// The matrix-era fallback: the whole batch through shard 0, with the
  /// shard's telemetry staged and merged exactly like a sharded pass.
  void match_serialized_into(std::span<const Message> msgs,
                             std::span<const RecvRequest> reqs, SimtMatchStats& out) const;

  SemanticsConfig cfg_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace simtmsg::matching
