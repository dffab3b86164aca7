#include "matching/matrix_matcher.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <vector>

#include "matching/compaction.hpp"
#include "matching/workspace.hpp"
#include "simt/timing_model.hpp"
#include "util/bits.hpp"

namespace simtmsg::matching {
namespace {

// The kernels read only src and tag of each element ("Instead of reading
// the entire message or receive request, only src and tag are being read",
// Algorithm 1): one 64-bit scan_word() per element (envelope.hpp), wildcards
// representable as all-ones halves.  A wildcard half accepts anything, so a
// receive word accepts a message word exactly when they agree on the bits
// of the receive's care mask.
constexpr std::uint64_t kSrcBits = 0xFFFF'FFFF'0000'0000ull;
constexpr std::uint64_t kTagBits = 0x0000'0000'FFFF'FFFFull;

[[nodiscard]] constexpr std::uint64_t care_mask(std::uint64_t recv) noexcept {
  std::uint64_t care = ~std::uint64_t{0};
  if ((recv & kSrcBits) == (scan_word(kAnySource, 0) & kSrcBits)) care &= ~kSrcBits;
  if ((recv & kTagBits) == (scan_word(0, kAnyTag) & kTagBits)) care &= ~kTagBits;
  return care;
}

/// The message side of one window as Algorithm 2 sees it: the message
/// words plus a bitmap of the messages not yet consumed (every reduce
/// thread's row_mask, end to end).  take() is one reduce step: the lowest
/// bidding row is the lowest warp holding an eligible match and ffs picks
/// its lowest lane, so the winner is the lowest-index live message the
/// receive accepts — for every warp width.
///
/// Wildcard receives scan the live blocks in order.  Exact receives, once a
/// window has seen enough of them to pay for it, use an index: an
/// open-addressed table from word to the first message of its chain, which
/// links the messages carrying that word in ascending order.  Lookups
/// advance a chain's head past consumed messages as they go.
class WindowScan {
 public:
  static constexpr std::size_t kMaxMsgs = std::size_t{simt::kWarpSize} * simt::kWarpSize;

  explicit WindowScan(std::span<const std::uint64_t> msgs) noexcept
      : msgs_(msgs), blocks_((msgs.size() + 63) / 64) {
    assert(msgs.size() <= kMaxMsgs);
    std::fill_n(live_, blocks_, ~std::uint64_t{0});
    if (msgs.size() % 64 != 0) live_[blocks_ - 1] >>= 64 - msgs.size() % 64;
  }

  /// Consume and return the earliest live message `recv` accepts; kNoMatch
  /// if there is none.
  [[nodiscard]] std::int32_t take(std::uint64_t recv) noexcept {
    const std::uint64_t care = care_mask(recv);
    if (care == ~std::uint64_t{0} && blocks_ > 1 && ++exact_seen_ > kScansBeforeIndex) {
      if (exact_seen_ == kScansBeforeIndex + 1) build_index();
      std::int16_t& head = head_[slot_of(recv)];
      while (head >= 0 && !live(static_cast<std::size_t>(head))) head = next_[head];
      if (head < 0) return kNoMatch;
      const auto i = static_cast<std::size_t>(head);
      head = next_[i];
      return consume(i);
    }
    const std::uint64_t want = recv & care;
    for (std::size_t b = first_; b < blocks_; ++b) {
      if (live_[b] == 0) continue;
      const std::uint64_t* words = msgs_.data() + b * 64;
      const std::size_t n = std::min<std::size_t>(64, msgs_.size() - b * 64);
      std::uint64_t hits = 0;
      for (std::size_t k = 0; k < n; ++k) {
        hits |= static_cast<std::uint64_t>((words[k] & care) == want) << k;
      }
      hits &= live_[b];
      if (hits != 0) return consume(b * 64 + static_cast<std::size_t>(std::countr_zero(hits)));
    }
    return kNoMatch;
  }

 private:
  static constexpr int kScansBeforeIndex = 8;  ///< Exact receives scanned first.
  static constexpr std::int16_t kEmpty = -1;   ///< Free slot.
  static constexpr std::int16_t kEnd = -2;     ///< Chain end; its slot stays taken.

  [[nodiscard]] bool live(std::size_t i) const noexcept {
    return ((live_[i / 64] >> (i % 64)) & 1) != 0;
  }

  std::int32_t consume(std::size_t i) noexcept {
    live_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
    while (first_ < blocks_ && live_[first_] == 0) ++first_;
    return static_cast<std::int32_t>(i);
  }

  [[nodiscard]] std::size_t slot_of(std::uint64_t word) const noexcept {
    auto s = static_cast<std::size_t>((word * 0x9E37'79B9'7F4A'7C15ull) >> 32) & slot_mask_;
    while (head_[s] != kEmpty && key_[s] != word) s = (s + 1) & slot_mask_;
    return s;
  }

  void build_index() noexcept {
    std::size_t slots = 128;
    while (slots < 2 * msgs_.size()) slots *= 2;
    slot_mask_ = slots - 1;
    std::fill_n(head_, slots, kEmpty);
    for (std::size_t i = msgs_.size(); i-- > 0;) {  // Back to front: chains ascend.
      const std::size_t s = slot_of(msgs_[i]);
      next_[i] = head_[s] == kEmpty ? kEnd : head_[s];
      key_[s] = msgs_[i];
      head_[s] = static_cast<std::int16_t>(i);
    }
  }

  std::span<const std::uint64_t> msgs_;
  std::size_t blocks_;
  std::size_t first_ = 0;  ///< Lowest block that may still hold a live message.
  std::uint64_t live_[kMaxMsgs / 64];
  int exact_seen_ = 0;
  std::size_t slot_mask_ = 0;
  std::uint64_t key_[2 * kMaxMsgs];
  std::int16_t head_[2 * kMaxMsgs];
  std::int16_t next_[kMaxMsgs];
};

}  // namespace

MatrixMatcher::MatrixMatcher(const simt::DeviceSpec& spec, Options opt)
    : spec_(&spec), opt_(opt) {
  // The reduce warp owns one vote row per thread: at most 32 scan warps.
  opt_.max_warps =
      std::clamp(opt_.max_warps, 1, std::min(spec.max_warps_per_cta, simt::kWarpSize));
  opt_.column_chunk = std::max(1, opt_.column_chunk);
  opt_.request_window = std::max(1, opt_.request_window);
  opt_.warp_width = std::clamp(opt_.warp_width, 1, simt::kWarpSize);
}

SimtMatchStats MatrixMatcher::match_window(std::span<const Message> msgs,
                                           std::span<const RecvRequest> reqs) const {
  MatrixWorkspace mws;
  SimtMatchStats stats;
  match_window_into(msgs, reqs, mws, stats);
  return stats;
}

void MatrixMatcher::match_window_into(std::span<const Message> msgs,
                                      std::span<const RecvRequest> reqs,
                                      MatrixWorkspace& mws, SimtMatchStats& out) const {
  // AoS entry point: gather the scan words once, then run the lane-fed
  // kernel.  The queue-drain path skips this gather entirely by feeding
  // MatchQueue's word lane into match_words_into directly.  The kernel
  // clamps to capacity()/request_window itself, so gathering beyond the
  // clamp only happens for the transient span-based callers.
  auto& msg_words = mws.msg_words;
  msg_words.resize(msgs.size());
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    msg_words[i] = scan_word(msgs[i].env);
  }
  auto& req_words = mws.req_words;
  req_words.resize(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    req_words[i] = scan_word(reqs[i].env);
  }
  match_words_into(msg_words, req_words, out);
}

void MatrixMatcher::match_words_into(std::span<const std::uint64_t> all_msg_words,
                                     std::span<const std::uint64_t> all_req_words,
                                     SimtMatchStats& out) const {
  out.reset(all_req_words.size());
  out.iterations = 1;

  const std::size_t n_msgs =
      std::min(all_msg_words.size(), static_cast<std::size_t>(capacity()));
  const std::size_t n_reqs =
      std::min(all_req_words.size(), static_cast<std::size_t>(opt_.request_window));
  if (n_msgs == 0 || n_reqs == 0) return;

  const auto req_words = all_req_words.subspan(0, n_reqs);
  WindowScan scan(all_msg_words.subspan(0, n_msgs));
  const auto match_columns = [&](std::size_t begin, std::size_t cols) {
    std::uint64_t matched = 0;
    for (std::size_t c = begin; c < begin + cols; ++c) {
      const std::int32_t m = scan.take(req_words[c]);
      out.result.request_match[c] = m;
      matched += (m != kNoMatch);
    }
    return matched;
  };

  const simt::TimingModel model(*spec_);
  const auto width = static_cast<std::size_t>(opt_.warp_width);
  const auto stall = static_cast<std::uint64_t>(opt_.reduce_chain_cycles);

  if (n_msgs <= width) {
    // ----- Single-warp fast path ("queues with less than 64 elements are
    // scanned by a single warp and no matrix is generated"): one coalesced
    // load of the message words, then per column a broadcast load, the
    // 3-instruction compare, ballot, eligibility mask and branch, plus the
    // ffs/mask update/store of a match.  A match counts as a divergent
    // branch (the branch is charged as count_branch(eligible != 0)).
    const std::uint64_t cols = n_reqs;
    const std::uint64_t matched = match_columns(0, n_reqs);
    simt::EventCounters& e = out.scan_events;
    e.global_load_requests = 1 + cols;
    e.global_transactions = util::ceil_div(n_msgs, 16) + cols + matched;
    e.alu_instructions = 4 * cols + 2 * matched;
    e.ballot_instructions = cols;
    e.branch_instructions = cols;
    e.divergent_branches = matched;
    e.stall_cycles = stall * cols;
    e.global_store_requests = matched;
    out.warps_used = 1;
    out.cycles = model.cycles(e, /*resident_warps=*/1) + opt_.iteration_overhead_cycles;
    out.seconds = model.seconds_from_cycles(out.cycles);
    return;
  }

  // ----- General path: multi-warp scan (Algorithm 1) + single-warp reduce
  // (Algorithm 2), chunked over columns so the vote matrix chunk fits in
  // shared memory and the two phases can be pipelined.
  const auto warps = util::ceil_div(n_msgs, width);
  const auto chunk_cols = static_cast<std::size_t>(opt_.column_chunk);
  if (warps * chunk_cols * sizeof(std::uint32_t) > spec_->shared_mem_per_sm) {
    throw std::runtime_error("CTA shared memory budget exceeded");
  }
  // With variable warp sizing, logical warps sharing a physical warp share
  // its L1: only the leading slice of each physical warp pays the global
  // broadcast load, the others a shared-memory access.
  const auto leading = util::ceil_div(warps, simt::kWarpSize / width);

  // Per-warp message registers (Algorithm 1's one load per thread): one
  // request per warp, one transaction per 128-byte segment its lanes span.
  simt::EventCounters scan_delta;
  for (std::size_t base = 0; base < n_msgs; base += width) {
    const std::size_t last = std::min(base + width, n_msgs) - 1;
    scan_delta.global_load_requests += 1;
    scan_delta.global_transactions += last / 16 - base / 16 + 1;
  }

  double scan_finish = 0.0;
  double reduce_finish = 0.0;
  double total_scan_cycles = 0.0;
  double total_reduce_cycles = 0.0;

  const bool pipelined = opt_.pipelined && static_cast<int>(warps) < opt_.max_warps;
  const int scan_resident = static_cast<int>(warps);
  const int reduce_resident = pipelined ? scan_resident + 1 : 1;

  for (std::size_t chunk_begin = 0; chunk_begin < n_reqs; chunk_begin += chunk_cols) {
    const std::uint64_t cols = std::min(chunk_cols, n_reqs - chunk_begin);
    const std::uint64_t matched = match_columns(chunk_begin, cols);

    // Scan (Algorithm 1): per warp and column a broadcast load of the
    // receive word (leading slices) or an L1 hit (the others), the
    // 3-instruction compare, the ballot (line 4), and the vote-matrix store
    // to shared memory plus its address arithmetic (line 5); one CTA
    // barrier hands the chunk to the reduce warp.
    scan_delta.global_load_requests += leading * cols;
    scan_delta.global_transactions += leading * cols;
    scan_delta.shared_transactions += (warps - leading) * cols + warps * cols;
    scan_delta.alu_instructions += 4 * warps * cols;
    scan_delta.ballot_instructions += warps * cols;
    scan_delta.cta_barriers += 1;
    const double scan_cycles = model.cycles(scan_delta, scan_resident);
    out.scan_events += scan_delta;
    scan_delta = {};

    // Reduce (Algorithm 2): per column one shared load of the vote column,
    // the 2-instruction bid test, the ballot over bidders (line 5) and its
    // branch, plus the serialized mask-update chain; per match the two ffs
    // and the mask update (lines 6-8) and the result store.
    simt::EventCounters reduce_delta;
    reduce_delta.shared_transactions = cols;
    reduce_delta.alu_instructions = 2 * cols + 3 * matched;
    reduce_delta.ballot_instructions = cols;
    reduce_delta.branch_instructions = cols;
    reduce_delta.divergent_branches = matched;
    reduce_delta.stall_cycles = stall * cols;
    reduce_delta.global_store_requests = matched;
    reduce_delta.global_transactions = matched;
    const double reduce_cycles = model.cycles(reduce_delta, reduce_resident);
    out.reduce_events += reduce_delta;

    // Pipeline ledger: the reduce of chunk k can only start once its scan
    // finished and the previous reduce drained.
    scan_finish += scan_cycles;
    reduce_finish = std::max(scan_finish, reduce_finish) + reduce_cycles;
    total_scan_cycles += scan_cycles;
    total_reduce_cycles += reduce_cycles;
  }

  out.warps_used = static_cast<int>(warps);
  out.cycles = (pipelined ? reduce_finish : total_scan_cycles + total_reduce_cycles) +
               opt_.iteration_overhead_cycles;
  out.seconds = model.seconds_from_cycles(out.cycles);
}

SimtMatchStats MatrixMatcher::match(std::span<const Message> msgs,
                                    std::span<const RecvRequest> reqs) const {
  MatchWorkspace ws;
  SimtMatchStats stats;
  match_into(msgs, reqs, ws, stats);
  return stats;
}

void MatrixMatcher::match_into(std::span<const Message> msgs,
                               std::span<const RecvRequest> reqs, MatchWorkspace& ws,
                               SimtMatchStats& out) const {
  auto& mq = ws.matrix.batch_msgs;
  auto& rq = ws.matrix.batch_reqs;
  mq.clear();
  rq.clear();
  mq.push_raw_n(msgs);
  rq.push_raw_n(reqs);
  match_queues_into(mq, rq, ws, out);
}

void MatrixMatcher::match_queues_into(MessageQueue& mq, RecvQueue& rq, MatchWorkspace& ws,
                                      SimtMatchStats& out) const {
  const std::size_t in_msgs = mq.size();
  const std::size_t in_reqs = rq.size();
  out.reset(rq.size());

  // Track original positions through compactions.
  auto& msg_orig = ws.matrix.msg_orig;
  msg_orig.resize(mq.size());
  for (std::size_t i = 0; i < msg_orig.size(); ++i) msg_orig[i] = static_cast<std::uint32_t>(i);
  auto& req_orig = ws.matrix.req_orig;
  req_orig.resize(rq.size());
  for (std::size_t i = 0; i < req_orig.size(); ++i) req_orig[i] = static_cast<std::uint32_t>(i);

  const Compactor compactor(*spec_);
  const auto cap = static_cast<std::size_t>(capacity());
  const auto req_win = static_cast<std::size_t>(opt_.request_window);
  const simt::TimingModel model(*spec_);

  std::size_t rw = 0;
  while (rw < rq.size() && !mq.empty()) {
    // Process this request window against all message chunks, restarting
    // from the first chunk after every successful (compacted) pass so that
    // requests sliding into the window still see messages in arrival order.
    std::size_t mc = 0;
    while (mc < mq.size() && rw < rq.size()) {
      const std::size_t msg_take = std::min(cap, mq.size() - mc);
      const std::size_t req_take = std::min(req_win, rq.size() - rw);
      // Feed the queues' SoA word lanes straight into the kernel: no
      // per-window AoS gather, and the lanes stay valid across compactions
      // because MatchQueue compacts them together with the element store.
      const auto msg_words = mq.words().subspan(mc, msg_take);
      const auto req_words = rq.words().subspan(rw, req_take);

      SimtMatchStats& pass = ws.matrix.window;
      match_words_into(msg_words, req_words, pass);
      out.scan_events += pass.scan_events;
      out.reduce_events += pass.reduce_events;
      out.cycles += pass.cycles;
      out.iterations += 1;
      out.warps_used = std::max(out.warps_used, pass.warps_used);

      const std::size_t matched = pass.result.matched();
      if (matched == 0) {
        mc += msg_take;
        continue;
      }

      auto& msg_flags = ws.matrix.msg_flags;
      auto& req_flags = ws.matrix.req_flags;
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
      if (opt_.compact) {
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
  record_attempt(out, in_msgs, in_reqs);
}

}  // namespace simtmsg::matching
