// Cluster: the user-facing runtime — a set of simulated GPU endpoints
// communicating over a GAS (Figure 1(b): accelerators autonomously sourcing
// and sinking traffic), each running a communication-kernel progress
// engine with the configured matching semantics.
//
//   runtime::Cluster cluster({.nodes = 4});
//   auto h = cluster.irecv(1, 0, kTag);            // Post on node 1.
//   cluster.send(0, 1, kTag, 0xBEEF);              // Send from node 0.
//   const auto c = cluster.wait(h);                // Drive progress.
//   // c.payload == 0xBEEF
//
// Communication is sliced into per-stream ordering domains (docs/
// streams.md): send/irecv qualified with the same Stream keep the full
// per-pair MPI ordering contract among themselves, while distinct streams
// of the same endpoint pair are mutually unordered — independent sequence
// spaces end to end (wire FIFO clamp, reliability seq/ack/watermark,
// match-queue cursors), so one stream's retransmit stall never
// head-of-line-blocks another.  Unqualified send/irecv are exact synonyms
// for stream 0, bit-identical to the pre-stream runtime.
//
// Progress is driven by a Scheduler (docs/runtime.md): each progress()
// tick advances the virtual clock to the next event, delivers the due
// packets, fires the due retransmit timers, and steps only the nodes whose
// communication kernels have matching work.  The scheduler maintains the
// active set and a retransmit-deadline wheel incrementally, so a tick
// costs O(active nodes) and the fleet scales to O(10k) nodes.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "matching/semantics.hpp"
#include "runtime/gas.hpp"
#include "runtime/progress_engine.hpp"
#include "runtime/reliability.hpp"
#include "runtime/scheduler.hpp"
#include "simt/device_spec.hpp"
#include "simt/launcher.hpp"

namespace simtmsg::runtime {

/// A first-class ordering domain (docs/streams.md).  Traffic qualified
/// with the same stream keeps today's per-pair MPI ordering guarantees
/// among itself; distinct streams of the same endpoint pair are mutually
/// unordered and never head-of-line-block each other.  Stream 0 (the
/// default) is the pre-stream ordering domain: unqualified send/irecv are
/// exact synonyms for `Stream{}` qualification.
struct Stream {
  matching::StreamId id = matching::kDefaultStream;

  friend constexpr bool operator==(const Stream&, const Stream&) noexcept = default;
};

/// Handle to a posted receive.
struct RecvHandle {
  int node = -1;
  std::uint64_t id = 0;

  /// False for default-constructed (never-issued) handles.  A valid handle
  /// may still refer to a receive that has since completed or been
  /// cancelled — test()/result() answer that.
  [[nodiscard]] constexpr bool valid() const noexcept { return node >= 0 && id != 0; }
};

/// Handle to an initiated send, symmetric with RecvHandle.  Sends complete
/// locally (the wire and reliability layers own delivery), so the handle
/// carries identity rather than a completion to poll; sends the fabric
/// gave up on surface through Cluster::delivery_failures().
struct SendHandle {
  int from = -1;
  int to = -1;
  std::uint64_t id = 0;

  /// False for default-constructed (never-issued) handles.
  [[nodiscard]] constexpr bool valid() const noexcept { return from >= 0 && id != 0; }
};

/// Result of a completed receive.
struct RecvResult {
  matching::Rank src = 0;  ///< Concrete source (wildcards resolved).
  matching::Tag tag = 0;
  std::uint64_t payload = 0;
  matching::StreamId stream = matching::kDefaultStream;  ///< Ordering domain.
};

/// How Cluster::progress() decides which nodes to schedule.  One policy
/// exists: the event-driven Scheduler (docs/runtime.md).
enum class SchedulerPolicy : int {
  /// Maintain the active set and RTO wheel incrementally: a tick costs
  /// O(active nodes), so quiescent nodes are never touched.
  kEventDriven = 1,
};

/// Default for ClusterConfig::max_streams: the SIMTMSG_STREAMS environment
/// variable when it holds a positive integer, else 64.  SIMTMSG_STREAMS=1
/// pins a suite to the default stream without code changes — the
/// streams-off equivalence leg.
[[nodiscard]] int default_max_streams();

struct ClusterConfig {
  int nodes = 2;
  matching::SemanticsConfig semantics;  ///< Default: fully MPI-compliant.
  simt::Generation device = simt::Generation::kPascal;
  NetworkConfig network;
  /// Ack/retransmit protocol over the (possibly faulted) fabric
  /// (docs/faults.md).  Off by default: the ideal lossless wire.
  ReliabilityConfig reliability;
  /// Host threads for the per-node matchers.  Purely a wall-clock knob:
  /// results and telemetry are bit-identical for every thread count.
  simt::ExecutionPolicy policy = simt::ExecutionPolicy::serial();
  /// Matcher shards (communication SMs) per node (docs/sharding.md).  The
  /// default of 1 is bit-identical to the original single-engine kernel;
  /// higher counts partition each node's matching by (comm, source rank)
  /// and model the shards as concurrent SMs.  Match results and payload
  /// routing are bit-identical for every shard count.
  int shards_per_node = 1;
  /// How progress() decides which nodes to schedule (docs/runtime.md).
  /// kEventDriven is the only value; the field stays so that code which
  /// pins the policy explicitly (the host benchmark's workloads do) keeps
  /// compiling.  Any other value is rejected by the constructor.
  SchedulerPolicy scheduler = SchedulerPolicy::kEventDriven;
  /// Ordering domains per endpoint pair (docs/streams.md): stream ids in
  /// [0, max_streams) are accepted by the stream-qualified send/irecv
  /// overloads.  Stream 0 always exists (max_streams must be >= 1); the
  /// default follows the SIMTMSG_STREAMS environment variable (unset = 64)
  /// so existing suites can be re-run pinned to the default stream.
  int max_streams = default_max_streams();
};

/// Typed view over the headline entries of Cluster::snapshot() (which is
/// the single source of truth; see Cluster::stats()).
struct ClusterStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t receives_posted = 0;
  std::uint64_t matches = 0;
  std::uint64_t delivery_failures = 0;  ///< Messages the fabric gave up on.
  double matching_seconds = 0.0;  ///< Modelled device time in the matchers.
  double virtual_time_us = 0.0;   ///< Simulated cluster clock.
};

class Cluster {
 public:
  /// Throws std::invalid_argument (naming the offending field and value)
  /// when the configuration is inconsistent: nodes < 1, shards_per_node
  /// < 1, a scheduler policy other than kEventDriven, or invalid semantics.
  explicit Cluster(ClusterConfig cfg);

  // The Scheduler probes capture `this`; the cluster must not move.
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] int nodes() const noexcept { return cfg_.nodes; }
  [[nodiscard]] double now_us() const noexcept { return now_us_; }
  [[nodiscard]] const matching::SemanticsConfig& semantics() const noexcept {
    return cfg_.semantics;
  }

  /// Non-blocking send from node `from` to node `to` on `stream`'s
  /// ordering domain.  Throws std::invalid_argument when stream.id is
  /// outside [0, max_streams).
  SendHandle send(Stream stream, int from, int to, matching::Tag tag,
                  std::uint64_t payload, matching::CommId comm = 0,
                  std::size_t bytes = 8);

  /// Default-stream shim: identical to send(Stream{}, ...).
  SendHandle send(int from, int to, matching::Tag tag, std::uint64_t payload,
                  matching::CommId comm = 0, std::size_t bytes = 8);

  /// Post a receive on `node` for `stream`'s ordering domain — it matches
  /// only messages sent on the same stream (the stream joins the match
  /// tuple; there is no stream wildcard).  src may be matching::kAnySource
  /// and tag matching::kAnyTag when the semantics allow wildcards
  /// (otherwise std::invalid_argument, as for an out-of-range stream id).
  [[nodiscard]] RecvHandle irecv(Stream stream, int node, matching::Rank src,
                                 matching::Tag tag, matching::CommId comm = 0);

  /// Default-stream shim: identical to irecv(Stream{}, ...).
  [[nodiscard]] RecvHandle irecv(int node, matching::Rank src, matching::Tag tag,
                                 matching::CommId comm = 0);

  /// True once the receive completed; non-blocking.  (Handles are 12 bytes
  /// — passed by value.)
  [[nodiscard]] bool test(RecvHandle h) const;

  /// Cancel a posted receive that has not completed: removes it from the
  /// node's posted queue and the pending index, and tells the scheduler in
  /// case the node just went idle.  Returns true when the handle was
  /// pending and is now cancelled; false when it already completed (the
  /// result stays readable) or was never posted.  O(posted queue) — a cold
  /// path for retiring receives whose messages the fabric gave up on
  /// (StarForest partial mode, docs/collectives.md).
  bool cancel(RecvHandle h);

  /// Completed result, if any.
  [[nodiscard]] std::optional<RecvResult> result(RecvHandle h) const;

  /// Drive progress until `h` completes.  Throws std::runtime_error when
  /// the cluster goes quiescent without completing it (deadlock); the
  /// error names the stuck handle, its posted envelope, and the
  /// scheduler's view of the node (idle / starved / runnable / awaiting
  /// retransmit) — all O(1) lookups, not queue scans.
  RecvResult wait(RecvHandle h);

  /// One scheduler tick: advance the clock to the next event (earliest
  /// arrival or retransmit deadline), deliver the due packets, fire the
  /// due timers, and step every node with matching work.  Returns the
  /// number of new matches.
  std::size_t progress();

  /// Run until no packets are in flight and no further matches are made.
  void run_until_quiescent();

  /// BSP superstep boundary: quiescence + (under no-unexpected semantics)
  /// verification that nothing unexpected remains.
  void barrier();

  /// The scheduler's view of one node — the vocabulary wait() uses for
  /// deadlock diagnostics.
  [[nodiscard]] NodeActivity node_activity(int node) const;

  /// Thin typed view over snapshot(): every field is read back out of the
  /// telemetry report (the single source of truth), so stats() can never
  /// drift from what snapshot() exports.
  [[nodiscard]] ClusterStats stats() const;

  /// Cluster-wide telemetry: every node engine's snapshot() merged, the
  /// runtime.fault.* / runtime.reliability.* instruments, the
  /// runtime.cluster.* headline counters/gauges backing stats(), one
  /// runtime.node.<n>.matching_seconds gauge per node, and the
  /// runtime.scheduler.* instruments (ticks, nodes stepped, idle steps
  /// skipped, wakes, RTO expiries, active-set peak).  Bit-identical for
  /// every host thread count.
  [[nodiscard]] telemetry::TelemetryReport snapshot() const;

  /// Every message the reliability layer gave up on (retry cap exhausted,
  /// or stranded behind a failed sequence at quiescence), in the order the
  /// failures were detected.  Empty on an ideal fabric.
  [[nodiscard]] const std::vector<DeliveryFailure>& delivery_failures() const noexcept {
    return failures_;
  }

  /// Registry absorbed into snapshot() alongside the per-node engine
  /// reports: runtime layers built on the cluster (StarForest, ...) put
  /// their runtime.* instruments here so cluster snapshots stay the single
  /// source of truth.  Single-threaded like the progress path itself.
  [[nodiscard]] telemetry::Registry& layer_telemetry() noexcept {
    return fabric_telemetry_;
  }

 private:
  /// The test-side scan oracle (tests/runtime/scan_oracle.hpp) reads the
  /// scheduler and its probe and drives progress tick by tick.
  friend class ScanOracle;

  /// A receive posted but not yet completed: the O(1) index wait() and the
  /// deadlock diagnostics use instead of scanning the posted queues.
  struct PendingRecv {
    int node = -1;
    matching::Envelope env;
  };

  /// True when nothing is in flight and no reliability timer is pending;
  /// on the transition to quiescence, sweeps stranded held messages into
  /// failures_.
  [[nodiscard]] bool quiesced();
  void inject(Packet&& p);
  /// A queue push may have made `node` runnable.
  void wake(int node);
  /// Throws std::invalid_argument when stream.id is outside
  /// [0, cfg_.max_streams).
  void validate_stream(Stream stream) const;
  /// The scheduler's view of the cluster state (captures `this`).
  [[nodiscard]] Scheduler::Probe scheduler_probe();

  ClusterConfig cfg_;
  telemetry::Registry fabric_telemetry_;  ///< runtime.fault.* / runtime.reliability.*.
  GlobalAddressSpace gas_;
  std::vector<ProgressEngine> engines_;
  std::vector<matching::RecvQueue> posted_;
  Scheduler scheduler_;
  std::unordered_map<std::uint64_t, RecvResult> completed_;  ///< By handle id.
  std::unordered_map<std::uint64_t, PendingRecv> pending_;   ///< By handle id.
  std::vector<DeliveryFailure> failures_;
  std::uint64_t next_handle_ = 1;
  /// Send handles draw from their own id space so receive handle ids are
  /// unchanged from the pre-SendHandle runtime.
  std::uint64_t next_send_id_ = 1;
  std::uint64_t sends_ = 0;
  std::uint64_t posts_ = 0;
  std::uint64_t cancels_ = 0;
  /// Per-stream activity, non-default streams only; exported as the
  /// runtime.stream.* counters.  Both maps stay empty — and the counters
  /// absent — until a non-default stream is used, so a default-stream
  /// cluster's snapshot is byte-identical to the pre-stream runtime's.
  std::map<matching::StreamId, std::uint64_t> stream_sends_;
  std::map<matching::StreamId, std::uint64_t> stream_posts_;
  double now_us_ = 0.0;

  // runtime.scheduler.* instruments (identical across host thread counts —
  // maintained on the single-threaded progress path).
  std::uint64_t ticks_ = 0;
  std::uint64_t nodes_stepped_ = 0;
  std::uint64_t idle_steps_skipped_ = 0;
  std::uint64_t wakes_ = 0;
  std::uint64_t rto_expiries_ = 0;
  std::size_t active_set_peak_ = 0;

  // Per-tick scratch, reused so the steady-state progress loop stays
  // allocation-free once the fleet's working set is warm.
  std::vector<Packet> raw_;
  std::vector<Packet> replies_;
  std::vector<Packet> resend_;
  std::vector<matching::Message> accepted_;
  std::vector<matching::Message> ingest_batch_;  ///< Same-destination run staging.
  std::vector<Completion> completions_;
  std::vector<int> active_;
  std::vector<int> due_;
};

}  // namespace simtmsg::runtime
