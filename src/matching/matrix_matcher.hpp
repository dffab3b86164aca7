// MatrixMatcher: the paper's fully MPI-compliant GPU matching algorithm
// (Section V, Algorithms 1 and 2, Figure 3).
//
// Phase 1, "scan" (Algorithm 1): every thread holds one message; for each
// receive request (a *column*), each warp votes via `ballot` whether its
// messages match, and the 32-bit vote word is written to the vote matrix
// (one row per warp).  The scan is parallel across up to 32 warps = 1024
// messages per iteration.
//
// Phase 2, "reduce" (Algorithm 2): a single warp walks the columns in
// posted order.  Thread t owns vote-matrix row t and a 32-bit mask of its
// still-unconsumed messages.  A second ballot finds the rows bidding for
// the column; `ffs` picks the lowest row, and `ffs` on that row's masked
// vote picks the earliest message — preserving MPI's ordering guarantee.
// The mask update serializes columns, which is the algorithm's bottleneck.
//
// Columns are processed in shared-memory-sized chunks so scan and reduce
// can be pipelined ("both phases can be pipelined to overlap execution");
// at 1024 messages all 32 warps are needed for the scan and the overlap
// disappears — the performance drop visible at the right edge of Figure 4.
//
// Queues with at most warp_width messages take a matrix-free single-warp
// fast path ("queues with less than 64 elements are scanned by a single
// warp and no matrix is generated").
//
// How the host computes it.  The two phases' outcome is simple: each
// receive, in posted order, takes the earliest unconsumed message it
// accepts.  The kernel resolves that with 64-bit word compares, then
// charges the simt::EventCounters the warp program issues, in closed form
// per column chunk, feeding each chunk's delta to the TimingModel in the
// program's order.  With W scan warps of width w, L = ceil(W / (32/w))
// leading slices, c columns in a chunk and m of them matched
// (loads/stores are requests + transactions, 8-byte words, 128-byte
// segments):
//
//   single warp  message load: 1 load, ceil(n/16) transactions; per column
//                a broadcast load, 3 compare + 1 eligibility alu, ballot,
//                branch, trunc(reduce_chain_cycles) stall; per match 2 alu
//                (ffs, mask), a result store, and the branch counts as
//                divergent
//   scan         msg = messages[tid], chunk 0 only: per warp 1 load plus
//   (Alg. 1)     the segments its lanes span.  req = requests[i]: L*c
//                broadcast loads, the other (W-L)*c slices hit L1 (shared).
//                vote = ballot(match(msg, req)): 3*W*c alu, W*c ballots.
//                voteMatrix store (line 5): W*c shared, W*c alu.  One CTA
//                barrier per chunk
//   reduce       vote-row load: c shared; bid = vote & mask: 2*c alu;
//   (Alg. 2)     ballot over bidders (line 5): c ballots, c branches; the
//                mask-update chain: c * trunc(reduce_chain_cycles) stall;
//                per match, winner ffs (line 6), message ffs (line 7) and
//                mask update: 3 alu, a result store, a divergent branch
//
// The scan is costed at W resident warps, the reduce at W+1 when pipelined
// (W < max_warps) and at 1 otherwise.  The lane-by-lane warp emulation
// these terms were read from is the test oracle
// tests/matching/matrix_oracle.hpp; its differential wall holds the two to
// bit-identical SimtMatchStats.
#pragma once

#include <span>

#include "matching/envelope.hpp"
#include "matching/matcher.hpp"
#include "matching/queue.hpp"
#include "matching/simt_stats.hpp"
#include "simt/device_spec.hpp"
#include "simt/launcher.hpp"

namespace simtmsg::matching {

struct MatrixWorkspace;

class MatrixMatcher : public Matcher {
 public:
  struct Options {
    bool pipelined = true;   ///< Overlap scan and reduce across column chunks.
    bool compact = true;     ///< Charge the compaction pass (§VI-B: ~10 %).
    int column_chunk = 64;   ///< Receive requests buffered in shared memory.
    int max_warps = 32;      ///< Scan warps per CTA (hardware limit: 32).
    int request_window = 1024;  ///< Receive requests examined per iteration.
    /// Logical warp width in lanes (1..32).  32 is today's hardware; the
    /// narrower settings model the "variable warp sizes" architecture the
    /// paper endorses for short queues (Section VII-C): each logical warp
    /// holds warp_width messages and is scheduled independently, so short
    /// queues get more concurrent warps (better latency hiding) at the
    /// price of more issued instructions per column.
    int warp_width = 32;
    /// Serialized dependent latency per reduced column (shared-memory load +
    /// ballot + mask update chain a single warp cannot overlap).
    double reduce_chain_cycles = 40.0;
    /// Fixed per-iteration bookkeeping (head/tail pointer maintenance).
    double iteration_overhead_cycles = 600.0;
    /// Host scheduling policy, accepted for interface uniformity with the
    /// other SIMT matchers.  The matrix kernel is a dependent scan→reduce
    /// pipeline over a shared vote matrix, so it runs on the calling thread
    /// regardless of the policy; host-side parallelism comes
    /// from the layers above (partitions in the PartitionedMatcher, CTAs in
    /// the HashMatcher).
    simt::ExecutionPolicy policy = simt::ExecutionPolicy::serial();
  };

  explicit MatrixMatcher(const simt::DeviceSpec& spec) : MatrixMatcher(spec, Options{}) {}
  MatrixMatcher(const simt::DeviceSpec& spec, Options opt);

  /// One matching iteration: up to max_warps*32 messages against up to
  /// `reqs.size()` receive requests.  Indices in the result refer to the
  /// spans passed in.  Fully MPI-compliant (wildcards + ordering).
  [[nodiscard]] SimtMatchStats match_window(std::span<const Message> msgs,
                                            std::span<const RecvRequest> reqs) const;

  /// Workspace form of match_window: the gathered words live in `mws`; the
  /// result lands in `out`.
  void match_window_into(std::span<const Message> msgs, std::span<const RecvRequest> reqs,
                         MatrixWorkspace& mws, SimtMatchStats& out) const;

  /// Lane-fed form: the window kernel over pre-packed scan words (what the
  /// queue-drain path feeds straight from MatchQueue's word lane, skipping
  /// the per-window AoS gather).  Word i must be scan_word(src_i, tag_i);
  /// identical words give bit-identical stats to match_window_into.
  void match_words_into(std::span<const std::uint64_t> msg_words,
                        std::span<const std::uint64_t> req_words, SimtMatchStats& out) const;

  /// Batch interface (Matcher): drains copies of the inputs through
  /// match_queues_into (the copies live in the workspace).
  [[nodiscard]] SimtMatchStats match(std::span<const Message> msgs,
                                     std::span<const RecvRequest> reqs) const override;

  void match_into(std::span<const Message> msgs, std::span<const RecvRequest> reqs,
                  MatchWorkspace& ws, SimtMatchStats& out) const override;

  [[nodiscard]] std::string_view name() const noexcept override { return "matrix"; }

  /// Drain two queues: iterate match_window over message chunks and request
  /// windows (in order, preserving MPI semantics), compacting after each
  /// pass, until no further progress.  Matched elements are removed from
  /// the queues.  The result maps every *original* request index to its
  /// *original* message index.
  void match_queues_into(MessageQueue& mq, RecvQueue& rq, MatchWorkspace& ws,
                         SimtMatchStats& out) const override;

  [[nodiscard]] const Options& options() const noexcept { return opt_; }
  [[nodiscard]] const simt::DeviceSpec& device() const noexcept { return *spec_; }

  /// Messages one iteration can process (max_warps logical warps of
  /// warp_width lanes each).
  [[nodiscard]] int capacity() const noexcept { return opt_.max_warps * opt_.warp_width; }

 private:
  const simt::DeviceSpec* spec_;
  Options opt_;
};

}  // namespace simtmsg::matching
