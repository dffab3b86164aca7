// The matrix oracle: MatrixMatcher's window kernel as a lane-by-lane warp
// emulation of the paper's Algorithms 1 and 2 on the SIMT engine.  This is
// the library's former kernel body, kept only as a test-side reference:
// every lane of every warp computes its vote, the ballots land in a
// shared-memory vote matrix, and a single reduce warp walks the columns
// with ffs.  The library computes the same matches natively and the same
// EventCounters in closed form; it is correct exactly when the full
// SimtMatchStats of both agree bit for bit (tests/matching/
// matrix_oracle_test.cpp).
//
// oracle_match_queues() repeats MatrixMatcher::match_queues_into's drain
// loop over the oracle kernel, so whole drains (queue contents, compaction
// counters, the per-window cycle sums) can be compared too.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "matching/compaction.hpp"
#include "matching/envelope.hpp"
#include "matching/matrix_matcher.hpp"
#include "matching/queue.hpp"
#include "matching/simt_stats.hpp"
#include "simt/cta.hpp"
#include "simt/lane_array.hpp"
#include "simt/timing_model.hpp"
#include "util/bits.hpp"

namespace simtmsg::matching::oracle {

/// Scratch for the emulated kernel: per-warp message registers and the two
/// address-pinned CTA contexts (scan + reduce).
struct MatrixOracleWorkspace {
  std::vector<std::uint64_t> msg_words;
  std::vector<std::uint64_t> req_words;
  std::vector<simt::LaneU64> msg_regs;
  std::vector<simt::LaneMask> warp_active;
  std::optional<simt::CtaContext> scan_cta;
  std::optional<simt::CtaContext> reduce_cta;
};

namespace detail {

inline simt::CtaContext& reuse_cta(std::optional<simt::CtaContext>& slot, int cta_id,
                                   int num_warps, std::size_t shared_mem_limit) {
  if (!slot.has_value()) {
    slot.emplace(cta_id, num_warps, shared_mem_limit);
  } else {
    slot->reset(cta_id, num_warps, shared_mem_limit);
  }
  return *slot;
}

[[nodiscard]] inline Rank word_src(std::uint64_t w) noexcept {
  return static_cast<Rank>(static_cast<std::uint32_t>(w >> 32));
}

[[nodiscard]] inline Tag word_tag(std::uint64_t w) noexcept {
  return static_cast<Tag>(static_cast<std::uint32_t>(w));
}

/// Does the receive word accept the message word (wildcards on the receive
/// side only)?
[[nodiscard]] inline bool word_matches(std::uint64_t recv, std::uint64_t msg) noexcept {
  const Rank rsrc = word_src(recv);
  const Tag rtag = word_tag(recv);
  return (rsrc == kAnySource || rsrc == word_src(msg)) &&
         (rtag == kAnyTag || rtag == word_tag(msg));
}

[[nodiscard]] inline simt::EventCounters delta(const simt::EventCounters& now,
                                               const simt::EventCounters& before) noexcept {
  simt::EventCounters d = now;
  d.alu_instructions -= before.alu_instructions;
  d.ballot_instructions -= before.ballot_instructions;
  d.shuffle_instructions -= before.shuffle_instructions;
  d.branch_instructions -= before.branch_instructions;
  d.divergent_branches -= before.divergent_branches;
  d.shared_transactions -= before.shared_transactions;
  d.global_transactions -= before.global_transactions;
  d.global_load_requests -= before.global_load_requests;
  d.global_store_requests -= before.global_store_requests;
  d.atomic_operations -= before.atomic_operations;
  d.stall_cycles -= before.stall_cycles;
  d.warp_syncs -= before.warp_syncs;
  d.cta_barriers -= before.cta_barriers;
  return d;
}

}  // namespace detail

/// The emulated window kernel: what MatrixMatcher::match_words_into must
/// reproduce bit for bit.
inline void match_words_into(const MatrixMatcher& matcher,
                             std::span<const std::uint64_t> all_msg_words,
                             std::span<const std::uint64_t> all_req_words,
                             MatrixOracleWorkspace& mws, SimtMatchStats& out) {
  using detail::word_matches;
  const auto& opt_ = matcher.options();
  const simt::DeviceSpec* spec_ = &matcher.device();

  out.reset(all_req_words.size());
  out.iterations = 1;

  const std::size_t n_msgs =
      std::min(all_msg_words.size(), static_cast<std::size_t>(matcher.capacity()));
  const std::size_t n_reqs =
      std::min(all_req_words.size(), static_cast<std::size_t>(opt_.request_window));
  if (n_msgs == 0 || n_reqs == 0) return;

  const auto msg_words = all_msg_words.subspan(0, n_msgs);
  const auto req_words = all_req_words.subspan(0, n_reqs);

  const simt::TimingModel model(*spec_);

  const auto width = static_cast<std::size_t>(opt_.warp_width);
  if (n_msgs <= width) {
    // ----- Single-warp fast path: no vote matrix.
    simt::CtaContext& cta = detail::reuse_cta(mws.scan_cta, 0, 1, spec_->shared_mem_per_sm);
    auto& warp = cta.warp(0);
    warp.set_active(util::low_mask(static_cast<int>(n_msgs)));

    // Each lane loads its message word once (coalesced).
    const auto msg_w = warp.load_global(std::span<const std::uint64_t>(msg_words),
                                        simt::LaneSize::iota());
    std::uint32_t consumed = 0;
    for (std::size_t col = 0; col < n_reqs; ++col) {
      const std::uint64_t req_w =
          warp.load_global_broadcast(std::span<const std::uint64_t>(req_words), col);
      simt::LaneBool pred;
      warp.lanes([&](int lane) { pred[lane] = word_matches(req_w, msg_w[lane]); },
                 /*instructions=*/3);
      const std::uint32_t vote = warp.ballot(pred);
      const std::uint32_t eligible = vote & ~consumed;
      warp.count_alu(1);
      warp.count_branch(eligible != 0);
      warp.count_stall(static_cast<std::uint64_t>(opt_.reduce_chain_cycles));
      if (eligible != 0) {
        const int pos = util::ffs(eligible) - 1;
        consumed = util::set_bit(consumed, pos);
        warp.count_alu(2);
        warp.counters().global_store_requests += 1;
        warp.counters().global_transactions += 1;
        out.result.request_match[col] = pos;
      }
    }
    out.scan_events = cta.counters();
    out.warps_used = 1;
    out.cycles = model.cycles(out.scan_events, /*resident_warps=*/1) +
                 opt_.iteration_overhead_cycles;
    out.seconds = model.seconds_from_cycles(out.cycles);
    return;
  }

  // ----- General path: multi-warp scan (Algorithm 1) + single-warp reduce
  // (Algorithm 2), chunked over columns.
  const int warps_used = static_cast<int>(util::ceil_div(n_msgs, width));
  const std::size_t chunk_cols = static_cast<std::size_t>(opt_.column_chunk);

  simt::CtaContext& scan_cta =
      detail::reuse_cta(mws.scan_cta, 0, warps_used, spec_->shared_mem_per_sm);
  simt::CtaContext& reduce_cta =
      detail::reuse_cta(mws.reduce_cta, 1, 1, spec_->shared_mem_per_sm);
  auto vote_chunk = scan_cta.alloc_shared<std::uint32_t>(
      static_cast<std::size_t>(warps_used) * chunk_cols);

  // Per-warp message registers, loaded once per iteration.
  auto& msg_regs = mws.msg_regs;
  msg_regs.resize(static_cast<std::size_t>(warps_used));
  auto& warp_active = mws.warp_active;
  warp_active.resize(static_cast<std::size_t>(warps_used));
  for (int w = 0; w < warps_used; ++w) {
    auto& warp = scan_cta.warp(w);
    const std::size_t base = static_cast<std::size_t>(w) * width;
    const int lanes_live = static_cast<int>(std::min(width, n_msgs - base));
    warp_active[static_cast<std::size_t>(w)] = util::low_mask(lanes_live);
    warp.set_active(warp_active[static_cast<std::size_t>(w)]);
    simt::LaneSize idx;
    for (int lane = 0; lane < lanes_live; ++lane) idx[lane] = base + static_cast<std::size_t>(lane);
    msg_regs[static_cast<std::size_t>(w)] =
        warp.load_global(std::span<const std::uint64_t>(msg_words), idx);
  }

  // Reduce state persisting across chunks: thread t owns vote row t and a
  // mask of its not-yet-consumed messages (Algorithm 2 line 1).
  simt::LaneU32 row_mask(0xFFFF'FFFFu);

  double scan_finish = 0.0;
  double reduce_finish = 0.0;
  double total_scan_cycles = 0.0;
  double total_reduce_cycles = 0.0;

  const bool pipelined = opt_.pipelined && warps_used < opt_.max_warps;
  const int scan_resident = warps_used;
  const int reduce_resident = pipelined ? warps_used + 1 : 1;

  simt::EventCounters scan_before;   // zero
  simt::EventCounters reduce_before; // zero

  for (std::size_t chunk_begin = 0; chunk_begin < n_reqs; chunk_begin += chunk_cols) {
    const std::size_t cols = std::min(chunk_cols, n_reqs - chunk_begin);

    // --- Scan phase (Algorithm 1) for this chunk.  Logical warps sharing a
    // physical warp share its L1: only the first slice pays the global
    // broadcast load; the others are charged a shared-memory access.
    const int slices_per_physical = simt::kWarpSize / std::max(1, opt_.warp_width);
    for (int w = 0; w < warps_used; ++w) {
      auto& warp = scan_cta.warp(w);
      warp.set_active(warp_active[static_cast<std::size_t>(w)]);
      const auto& msg_w = msg_regs[static_cast<std::size_t>(w)];
      const bool leading_slice = (w % std::max(1, slices_per_physical)) == 0;
      for (std::size_t c = 0; c < cols; ++c) {
        std::uint64_t req_w;
        if (leading_slice) {
          req_w = warp.load_global_broadcast(std::span<const std::uint64_t>(req_words),
                                             chunk_begin + c);
        } else {
          req_w = req_words[chunk_begin + c];
          warp.counters().shared_transactions += 1;
        }
        simt::LaneBool pred;
        warp.lanes([&](int lane) { pred[lane] = word_matches(req_w, msg_w[lane]); },
                   /*instructions=*/3);
        const std::uint32_t vote = warp.ballot(pred);
        // voteMatrix[warp_id * window + i] = vote (Algorithm 1 line 5).
        vote_chunk[static_cast<std::size_t>(w) * chunk_cols + c] = vote;
        warp.count_alu(1);
        warp.counters().shared_transactions += 1;
      }
    }
    scan_cta.barrier();
    const simt::EventCounters scan_now = scan_cta.counters();
    const simt::EventCounters scan_delta = detail::delta(scan_now, scan_before);
    scan_before = scan_now;
    const double scan_cycles = model.cycles(scan_delta, scan_resident);

    // --- Reduce phase (Algorithm 2) for this chunk: one warp, thread t
    // reads row t of the vote matrix.
    auto& rwarp = reduce_cta.warp(0);
    rwarp.set_active(util::low_mask(warps_used));
    for (std::size_t c = 0; c < cols; ++c) {
      simt::LaneU32 vote;
      {
        simt::LaneSize idx;
        for (int t = 0; t < warps_used; ++t) {
          idx[t] = static_cast<std::size_t>(t) * chunk_cols + c;
        }
        vote = rwarp.load_shared(std::span<const std::uint32_t>(vote_chunk.data(),
                                                                vote_chunk.size()),
                                 idx);
      }
      simt::LaneBool bids;
      rwarp.lanes([&](int t) { bids[t] = (vote[t] & row_mask[t]) != 0; },
                  /*instructions=*/2);
      const std::uint32_t bidders = rwarp.ballot(bids);  // Algorithm 2 line 5.
      rwarp.count_branch(bidders != 0);
      rwarp.count_stall(static_cast<std::uint64_t>(opt_.reduce_chain_cycles));
      if (bidders != 0) {
        // Lowest thread id wins (line 6); lowest set bit of its masked vote
        // is the earliest message (line 7).
        const int winner = util::ffs(bidders) - 1;
        const std::uint32_t eligible = vote[winner] & row_mask[winner];
        const int match_bit = util::ffs(eligible) - 1;
        row_mask[winner] = util::clear_bit(row_mask[winner], match_bit);
        rwarp.count_alu(3);
        rwarp.counters().global_store_requests += 1;
        rwarp.counters().global_transactions += 1;
        out.result.request_match[chunk_begin + c] =
            static_cast<std::int32_t>(winner * static_cast<int>(width) + match_bit);
      }
    }
    const simt::EventCounters reduce_now = reduce_cta.counters();
    const simt::EventCounters reduce_delta = detail::delta(reduce_now, reduce_before);
    reduce_before = reduce_now;
    const double reduce_cycles = model.cycles(reduce_delta, reduce_resident);

    // Pipeline ledger: the reduce of chunk k can only start once its scan
    // finished and the previous reduce drained.
    scan_finish += scan_cycles;
    reduce_finish = std::max(scan_finish, reduce_finish) + reduce_cycles;
    total_scan_cycles += scan_cycles;
    total_reduce_cycles += reduce_cycles;
  }

  out.scan_events = scan_cta.counters();
  out.reduce_events = reduce_cta.counters();
  out.warps_used = warps_used;
  out.cycles = (pipelined ? reduce_finish : total_scan_cycles + total_reduce_cycles) +
               opt_.iteration_overhead_cycles;
  out.seconds = model.seconds_from_cycles(out.cycles);
}

/// AoS form of the oracle window kernel (gathers the scan words first).
[[nodiscard]] inline SimtMatchStats match_window(const MatrixMatcher& matcher,
                                                 std::span<const Message> msgs,
                                                 std::span<const RecvRequest> reqs) {
  MatrixOracleWorkspace mws;
  for (const auto& m : msgs) mws.msg_words.push_back(scan_word(m.env));
  for (const auto& r : reqs) mws.req_words.push_back(scan_word(r.env));
  SimtMatchStats out;
  match_words_into(matcher, mws.msg_words, mws.req_words, mws, out);
  return out;
}

/// MatrixMatcher::match_queues_into's drain loop over the oracle kernel
/// (without the per-attempt telemetry).
inline void match_queues_into(const MatrixMatcher& matcher, MessageQueue& mq, RecvQueue& rq,
                              SimtMatchStats& out) {
  const auto& spec = matcher.device();
  const auto& opt = matcher.options();
  out.reset(rq.size());

  std::vector<std::uint32_t> msg_orig(mq.size());
  for (std::size_t i = 0; i < msg_orig.size(); ++i) msg_orig[i] = static_cast<std::uint32_t>(i);
  std::vector<std::uint32_t> req_orig(rq.size());
  for (std::size_t i = 0; i < req_orig.size(); ++i) req_orig[i] = static_cast<std::uint32_t>(i);

  const Compactor compactor(spec);
  const auto cap = static_cast<std::size_t>(matcher.capacity());
  const auto req_win = static_cast<std::size_t>(opt.request_window);
  const simt::TimingModel model(spec);
  MatrixOracleWorkspace mws;
  SimtMatchStats pass;
  std::vector<std::uint8_t> msg_flags;
  std::vector<std::uint8_t> req_flags;

  std::size_t rw = 0;
  while (rw < rq.size() && !mq.empty()) {
    std::size_t mc = 0;
    while (mc < mq.size() && rw < rq.size()) {
      const std::size_t msg_take = std::min(cap, mq.size() - mc);
      const std::size_t req_take = std::min(req_win, rq.size() - rw);
      match_words_into(matcher, mq.words().subspan(mc, msg_take),
                       rq.words().subspan(rw, req_take), mws, pass);
      out.scan_events += pass.scan_events;
      out.reduce_events += pass.reduce_events;
      out.cycles += pass.cycles;
      out.iterations += 1;
      out.warps_used = std::max(out.warps_used, pass.warps_used);

      if (pass.result.matched() == 0) {
        mc += msg_take;
        continue;
      }

      msg_flags.assign(mq.size(), 0);
      req_flags.assign(rq.size(), 0);
      for (std::size_t j = 0; j < pass.result.request_match.size(); ++j) {
        const auto m = pass.result.request_match[j];
        if (m == kNoMatch) continue;
        const std::size_t msg_at = mc + static_cast<std::size_t>(m);
        const std::size_t req_at = rw + j;
        out.result.request_match[req_orig[req_at]] =
            static_cast<std::int32_t>(msg_orig[msg_at]);
        msg_flags[msg_at] = 1;
        req_flags[req_at] = 1;
      }

      const auto mstat = compactor.compact(mq, msg_flags);
      const auto rstat = compactor.compact(rq, req_flags);
      if (opt.compact) {
        out.compact_events += mstat.events;
        out.compact_events += rstat.events;
        out.cycles += mstat.cycles + rstat.cycles;
      }
      const auto drop_flagged = [](std::vector<std::uint32_t>& v,
                                   const std::vector<std::uint8_t>& flags) {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < v.size(); ++i) {
          if (flags[i] == 0) v[kept++] = v[i];
        }
        v.resize(kept);
      };
      drop_flagged(msg_orig, msg_flags);
      drop_flagged(req_orig, req_flags);
      mc = 0;
    }
    rw += std::min(req_win, rq.size() - rw);
  }

  out.seconds = model.seconds_from_cycles(out.cycles);
}

}  // namespace simtmsg::matching::oracle
