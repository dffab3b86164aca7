#include "matching/sharded_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace simtmsg::matching {
namespace {

[[nodiscard]] std::uint64_t count_any_source(std::span<const RecvRequest> reqs) noexcept {
  std::uint64_t n = 0;
  for (const auto& r : reqs) {
    if (r.env.src == kAnySource) ++n;
  }
  return n;
}

/// Lane form: the queue-drain path scans the queue's contiguous src lane
/// instead of striding over whole RecvRequest structs.
[[nodiscard]] std::uint64_t count_any_source(std::span<const Rank> srcs) noexcept {
  std::uint64_t n = 0;
  for (const Rank s : srcs) {
    if (s == kAnySource) ++n;
  }
  return n;
}

// Pass-accounting counters (always written at the top level, never inside a
// shard stage, so a mid-pass snapshot can't observe a half-staged value —
// the drift the serialized pass used to exhibit).
constexpr std::string_view kShardSerialized = "matching.shard.serialized_passes";
constexpr std::string_view kShardSharded = "matching.shard.sharded_passes";
constexpr std::string_view kShardReplicated = "matching.shard.replicated_passes";
constexpr std::string_view kShardWildcardPosts = "matching.shard.wildcard_posts";
constexpr std::string_view kShardRounds = "matching.shard.replication_rounds";

/// Stub-claim reconciliation cap; beyond it the pass falls back to the
/// serialized path (still exact, never reached by non-adversarial traffic).
constexpr int kMaxReplicationRounds = 64;

}  // namespace

struct ShardedMatchEngine::Impl {
  Options opt;
  std::vector<MatchEngine> shards;

  // Route scratch, recycled across calls (the engine is per-thread, like
  // MatchEngine: none of this is locked).  Every buffer is re-initialized
  // with clear()/assign()/resize() so capacity survives and the steady
  // state allocates nothing.
  std::vector<MessageQueue> shard_msgs;
  std::vector<RecvQueue> shard_reqs;
  std::vector<std::vector<std::uint32_t>> msg_map;
  std::vector<std::vector<std::uint32_t>> req_map;
  std::vector<SimtMatchStats> shard_stats;
  std::vector<std::uint8_t> shard_busy;  ///< Not vector<bool>: written in parallel.
  std::vector<telemetry::Registry> stages;
  std::vector<std::uint8_t> msg_flags;
  std::vector<std::uint8_t> req_flags;

  // Replicated-stub wildcard path scratch (pattern-table algorithm only).
  struct Claim {
    std::uint32_t msg = 0;    ///< Global message index (arrival order).
    std::uint32_t req = 0;    ///< Global index of the wildcard receive.
    std::uint32_t shard = 0;  ///< Shard whose run produced the claim.
  };
  std::vector<std::vector<std::uint32_t>> rep_msg_idx;  ///< Pristine routing.
  std::vector<std::vector<std::uint32_t>> rep_req_idx;  ///< Concrete + stubs, posted order.
  std::vector<std::vector<std::uint8_t>> lost;  ///< Per shard, per global req: stub dropped.
  std::vector<std::uint8_t> shard_dirty;        ///< Needs a (re-)run this round.
  std::vector<Claim> claims;
  std::vector<std::int32_t> req_owner;   ///< Scan scratch: stub -> claiming shard.
  std::vector<std::uint8_t> req_proven;  ///< Scan scratch: owner claim is final.
  std::vector<std::uint8_t> scan_suspect;  ///< Shard hit a conflict this scan.
  std::vector<std::uint8_t> scan_shaky;    ///< Shard holds a threatened claim.

  std::uint64_t serialized_passes = 0;
  std::uint64_t sharded_passes = 0;
  std::uint64_t replicated_passes = 0;
};

ShardedMatchEngine::ShardedMatchEngine(const simt::DeviceSpec& spec, SemanticsConfig cfg,
                                       Options opt)
    : cfg_(cfg), impl_(std::make_unique<Impl>()) {
  if (opt.shards < 1) throw std::invalid_argument("sharded engine needs shards >= 1");
  impl_->opt = opt;
  const auto n = static_cast<std::size_t>(opt.shards);
  impl_->shards.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    // Each shard models an independent communication SM; the shard's own
    // matcher fan-out (CTAs, partitions) still honors the host policy.
    impl_->shards.emplace_back(spec, cfg, opt.policy);
  }
  impl_->shard_msgs.resize(n);
  impl_->shard_reqs.resize(n);
  impl_->msg_map.resize(n);
  impl_->req_map.resize(n);
  impl_->shard_stats.resize(n);
  impl_->shard_busy.resize(n, 0);
  impl_->stages.resize(n);
  impl_->rep_msg_idx.resize(n);
  impl_->rep_req_idx.resize(n);
  impl_->lost.resize(n);
  impl_->shard_dirty.resize(n, 0);
}

ShardedMatchEngine::~ShardedMatchEngine() = default;
ShardedMatchEngine::ShardedMatchEngine(ShardedMatchEngine&&) noexcept = default;
ShardedMatchEngine& ShardedMatchEngine::operator=(ShardedMatchEngine&&) noexcept = default;

Algorithm ShardedMatchEngine::algorithm_kind() const noexcept {
  return impl_->shards.front().algorithm_kind();
}

int ShardedMatchEngine::shard_count() const noexcept {
  return static_cast<int>(impl_->shards.size());
}

int ShardedMatchEngine::shard_of(CommId comm, Rank src, StreamId stream) const noexcept {
  // Static partition map over the (comm, source-rank, stream) class space.
  // Mixing the comm/src halves keeps skewed rank or communicator patterns
  // from piling onto one shard; the map must only be stable, not
  // order-preserving, because every (comm, src, stream) class is confined
  // to a single shard either way.  The stream id is added AFTER the mix:
  // stream 0 therefore reproduces the pre-stream map bit-for-bit, and the
  // streams of one (comm, src) pair walk consecutive shards — the
  // stream-affinity spread bench/fig_streams sweeps.
  const std::uint64_t word =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(comm)) << 32) |
      static_cast<std::uint32_t>(src);
  const std::uint32_t mixed =
      util::mix64to32(word) + static_cast<std::uint32_t>(stream);
  return static_cast<int>(mixed % impl_->shards.size());
}

std::uint64_t ShardedMatchEngine::serialized_passes() const noexcept {
  return impl_->serialized_passes;
}

std::uint64_t ShardedMatchEngine::sharded_passes() const noexcept {
  return impl_->sharded_passes;
}

std::uint64_t ShardedMatchEngine::replicated_passes() const noexcept {
  return impl_->replicated_passes;
}

telemetry::TelemetryReport ShardedMatchEngine::snapshot() const {
  telemetry::TelemetryReport total;
  for (const auto& shard : impl_->shards) total.merge(shard.snapshot());
  return total;
}

telemetry::TelemetryReport ShardedMatchEngine::shard_snapshot(int shard) const {
  if (shard < 0 || shard >= shard_count()) {
    throw std::out_of_range("shard index out of range");
  }
  return impl_->shards[static_cast<std::size_t>(shard)].snapshot();
}

void ShardedMatchEngine::match_shards_into(std::span<const Message> msgs,
                                           std::span<const RecvRequest> reqs,
                                           SimtMatchStats& out) const {
  Impl& im = *impl_;
  const std::size_t n = im.shards.size();
  out.reset(reqs.size());

  for (std::size_t s = 0; s < n; ++s) {
    im.shard_msgs[s].clear();
    im.shard_reqs[s].clear();
    im.msg_map[s].clear();
    im.req_map[s].clear();
    im.shard_busy[s] = 0;
  }
  // Stable routing: within a shard, elements keep their global relative
  // order (and their sequence numbers, via push_raw), so every
  // (comm, src, stream) class reaches its shard exactly as an unsharded
  // engine would see it.
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const auto s = static_cast<std::size_t>(
        shard_of(msgs[i].env.comm, msgs[i].env.src, msgs[i].env.stream));
    im.shard_msgs[s].push_raw(msgs[i]);
    im.msg_map[s].push_back(static_cast<std::uint32_t>(i));
  }
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto s = static_cast<std::size_t>(
        shard_of(reqs[i].env.comm, reqs[i].env.src, reqs[i].env.stream));
    im.shard_reqs[s].push_raw(reqs[i]);
    im.req_map[s].push_back(static_cast<std::uint32_t>(i));
  }

  if constexpr (telemetry::kEnabled) {
    for (std::size_t s = 0; s < n; ++s) im.stages[s].reset_values();
  }

  // Fan the shards out across host threads.  Each shard touches only its
  // own queues, stats slot, engine (and workspace), and telemetry stage;
  // the merges below run serially in shard-index order, which is what
  // keeps results and snapshots bit-identical for every thread count.
  util::ThreadPool::shared().run_indexed(
      n, im.opt.policy.resolved_threads(), [&](std::size_t s) {
        if (im.shard_msgs[s].empty() || im.shard_reqs[s].empty()) return;
        im.shard_busy[s] = 1;
        if constexpr (telemetry::kEnabled) {
          const telemetry::ScopedStage stage(im.stages[s]);
          im.shards[s].match_queues(im.shard_msgs[s], im.shard_reqs[s],
                                    im.shard_stats[s]);
        } else {
          im.shards[s].match_queues(im.shard_msgs[s], im.shard_reqs[s],
                                    im.shard_stats[s]);
        }
      });
  if constexpr (telemetry::kEnabled) {
    auto& sink = telemetry::sink();
    for (std::size_t s = 0; s < n; ++s) {
      if (im.shard_busy[s] != 0) sink.merge_from(im.stages[s]);
    }
  }

  // Merge in shard-index order.  Shards model concurrent communication
  // SMs, so the modelled time of the pass is the slowest shard's, while
  // matches and per-phase event counters sum.
  double max_cycles = 0.0;
  double max_seconds = 0.0;
  int ctas = 0;
  for (std::size_t s = 0; s < n; ++s) {
    if (im.shard_busy[s] == 0) continue;
    const SimtMatchStats& shard = im.shard_stats[s];
    for (std::size_t r = 0; r < shard.result.request_match.size(); ++r) {
      const auto m = shard.result.request_match[r];
      if (m == kNoMatch) continue;
      out.result.request_match[im.req_map[s][r]] =
          static_cast<std::int32_t>(im.msg_map[s][static_cast<std::size_t>(m)]);
    }
    out.scan_events += shard.scan_events;
    out.reduce_events += shard.reduce_events;
    out.compact_events += shard.compact_events;
    out.iterations += shard.iterations;
    out.warps_used = std::max(out.warps_used, shard.warps_used);
    ctas += shard.ctas_used;
    max_cycles = std::max(max_cycles, shard.cycles);
    max_seconds = std::max(max_seconds, shard.seconds);
  }
  out.ctas_used = std::max(1, ctas);
  out.cycles = max_cycles;
  out.seconds = max_seconds;
  ++im.sharded_passes;
  telemetry::count(kShardSharded);
}

void ShardedMatchEngine::match_serialized_into(std::span<const Message> msgs,
                                               std::span<const RecvRequest> reqs,
                                               SimtMatchStats& out) const {
  Impl& im = *impl_;
  // The whole batch through shard 0, with the shard's matcher telemetry
  // staged and merged exactly like a sharded pass would stage it.  Before
  // this fix the serialized pass wrote shard 0's counters straight into the
  // ambient sink, so the first ANY_SOURCE post of a fresh engine produced a
  // different staging order than every other pass (counter drift vs the
  // unsharded engine under stage-scoped collection).
  if constexpr (telemetry::kEnabled) {
    im.stages[0].reset_values();
    {
      const telemetry::ScopedStage stage(im.stages[0]);
      im.shards.front().match(msgs, reqs, out);
    }
    telemetry::sink().merge_from(im.stages[0]);
  } else {
    im.shards.front().match(msgs, reqs, out);
  }
  ++im.serialized_passes;
  telemetry::count(kShardSerialized);
}

void ShardedMatchEngine::match_replicated_into(std::span<const Message> msgs,
                                               std::span<const RecvRequest> reqs,
                                               SimtMatchStats& out) const {
  Impl& im = *impl_;
  const std::size_t n = im.shards.size();
  out.reset(reqs.size());

  // Pristine routing as index lists: messages and concrete receives go to
  // their (comm, src) shard; every ANY_SOURCE receive is stubbed into all
  // shards, in its global posted position, so each shard sees exactly the
  // receive stream an unsharded engine would show it.
  for (std::size_t s = 0; s < n; ++s) {
    im.rep_msg_idx[s].clear();
    im.rep_req_idx[s].clear();
    im.lost[s].assign(reqs.size(), 0);
    im.shard_dirty[s] = 1;
    im.shard_busy[s] = 0;
    im.shard_stats[s].reset(0);
    im.req_map[s].clear();
  }
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const auto s = static_cast<std::size_t>(
        shard_of(msgs[i].env.comm, msgs[i].env.src, msgs[i].env.stream));
    im.rep_msg_idx[s].push_back(static_cast<std::uint32_t>(i));
  }
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].env.src == kAnySource) {
      for (std::size_t s = 0; s < n; ++s) {
        im.rep_req_idx[s].push_back(static_cast<std::uint32_t>(i));
      }
    } else {
      const auto s = static_cast<std::size_t>(
          shard_of(reqs[i].env.comm, reqs[i].env.src, reqs[i].env.stream));
      im.rep_req_idx[s].push_back(static_cast<std::uint32_t>(i));
    }
  }

  // Fixpoint: run dirty shards, scan stub claims in global message-arrival
  // order, finalize everything before the first cross-shard conflict, drop
  // the loser's stub and re-run it.  Each round with a conflict removes one
  // stub permanently (sound: the winning claim is in the finalized prefix),
  // so the loop terminates; docs/wildcards.md has the argument.
  double total_cycles = 0.0;
  double total_seconds = 0.0;
  int rounds = 0;
  while (true) {
    if (++rounds > kMaxReplicationRounds) {
      // Safety valve: exact, just not parallel — the whole batch through
      // shard 0, leftover-tolerant (the caller applies any unexpected-
      // message policy).  Unreachable without an adversarial claim-chain;
      // counted so regressions would show up.
      auto& mq0 = im.shard_msgs[0];
      auto& rq0 = im.shard_reqs[0];
      mq0.clear();
      rq0.clear();
      mq0.push_raw_n(msgs);
      rq0.push_raw_n(reqs);
      if constexpr (telemetry::kEnabled) {
        im.stages[0].reset_values();
        {
          const telemetry::ScopedStage stage(im.stages[0]);
          im.shards.front().match_queues(mq0, rq0, out);
        }
        telemetry::sink().merge_from(im.stages[0]);
      } else {
        im.shards.front().match_queues(mq0, rq0, out);
      }
      ++im.serialized_passes;
      telemetry::count(kShardSerialized);
      return;
    }
    if constexpr (telemetry::kEnabled) {
      for (std::size_t s = 0; s < n; ++s) {
        if (im.shard_dirty[s] != 0) im.stages[s].reset_values();
      }
    }
    util::ThreadPool::shared().run_indexed(
        n, im.opt.policy.resolved_threads(), [&](std::size_t s) {
          if (im.shard_dirty[s] == 0) return;
          im.shard_busy[s] = 0;
          auto& mq = im.shard_msgs[s];
          auto& rq = im.shard_reqs[s];
          mq.clear();
          rq.clear();
          im.req_map[s].clear();
          for (const auto gi : im.rep_msg_idx[s]) mq.push_raw(msgs[gi]);
          for (const auto gi : im.rep_req_idx[s]) {
            if (im.lost[s][gi] != 0) continue;
            rq.push_raw(reqs[gi]);
            im.req_map[s].push_back(gi);
          }
          im.shard_stats[s].reset(0);
          if (mq.empty() || rq.empty()) return;
          im.shard_busy[s] = 1;
          if constexpr (telemetry::kEnabled) {
            const telemetry::ScopedStage stage(im.stages[s]);
            im.shards[s].match_queues(mq, rq, im.shard_stats[s]);
          } else {
            im.shards[s].match_queues(mq, rq, im.shard_stats[s]);
          }
        });
    if constexpr (telemetry::kEnabled) {
      auto& sink = telemetry::sink();
      for (std::size_t s = 0; s < n; ++s) {
        if (im.shard_dirty[s] != 0 && im.shard_busy[s] != 0) sink.merge_from(im.stages[s]);
      }
    }

    // Modelled cost of the round: shards run concurrently, so the round
    // costs its slowest re-run shard; rounds serialize.  Event counters sum
    // over every run (discarded runs were real modelled work).
    double round_cycles = 0.0;
    double round_seconds = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      if (im.shard_dirty[s] == 0 || im.shard_busy[s] == 0) continue;
      const SimtMatchStats& shard = im.shard_stats[s];
      out.scan_events += shard.scan_events;
      out.reduce_events += shard.reduce_events;
      out.compact_events += shard.compact_events;
      out.iterations += shard.iterations;
      out.warps_used = std::max(out.warps_used, shard.warps_used);
      round_cycles = std::max(round_cycles, shard.cycles);
      round_seconds = std::max(round_seconds, shard.seconds);
    }
    total_cycles += round_cycles;
    total_seconds += round_seconds;
    for (std::size_t s = 0; s < n; ++s) im.shard_dirty[s] = 0;

    // Collect every shard's live stub claims (latest runs) and scan them in
    // global arrival order.  Message indices are unique across shards, so
    // the order is total and the scan is deterministic.
    im.claims.clear();
    for (std::size_t s = 0; s < n; ++s) {
      const SimtMatchStats& shard = im.shard_stats[s];
      for (std::size_t r = 0; r < shard.result.request_match.size(); ++r) {
        const auto m = shard.result.request_match[r];
        if (m == kNoMatch) continue;
        const std::uint32_t g = im.req_map[s][r];
        if (reqs[g].env.src != kAnySource) continue;
        im.claims.push_back(Impl::Claim{
            .msg = im.rep_msg_idx[s][static_cast<std::size_t>(m)],
            .req = g,
            .shard = static_cast<std::uint32_t>(s)});
      }
    }
    std::sort(im.claims.begin(), im.claims.end(),
              [](const Impl::Claim& a, const Impl::Claim& b) { return a.msg < b.msg; });

    // A claim is a PROVEN owner when nothing with unknown behavior can get
    // at its stub first: the claiming shard has had no conflict earlier in
    // the scan, holds no earlier threatened claim (scan_shaky), and no
    // shard already marked for a re-run still stubs the wildcard.  Losses
    // are charged (and stubs dropped, permanently) only against proven
    // owners; a conflict with a tentative owner merely suspends the loser's
    // remaining claims until the threat has re-run.  The first conflict of
    // any scan is always against a proven owner, so every round with a
    // conflict drops at least one stub and the fixpoint terminates.
    im.req_owner.assign(reqs.size(), -1);
    im.req_proven.assign(reqs.size(), 0);
    im.scan_suspect.assign(n, 0);
    im.scan_shaky.assign(n, 0);
    bool any_loss = false;
    for (const Impl::Claim& c : im.claims) {
      const std::size_t s = c.shard;
      if (im.scan_suspect[s] != 0) continue;  // Behind its own first conflict.
      if (im.req_owner[c.req] >= 0) {
        im.scan_suspect[s] = 1;
        if (im.req_proven[c.req] != 0) {
          im.lost[s][c.req] = 1;
          im.shard_dirty[s] = 1;
          any_loss = true;
        }
        continue;
      }
      bool threatened = im.scan_shaky[s] != 0;
      for (std::size_t t = 0; !threatened && t < n; ++t) {
        threatened = im.shard_dirty[t] != 0 && im.lost[t][c.req] == 0;
      }
      im.req_owner[c.req] = static_cast<std::int32_t>(s);
      im.req_proven[c.req] = threatened ? 0 : 1;
      if (threatened) im.scan_shaky[s] = 1;
    }
    // No permanent loss implies no re-runs were pending (threats require an
    // earlier loss), hence every owner was proven and no conflict occurred.
    if (!any_loss) break;
  }

  // Compose the final pairing from each shard's latest run.  At the
  // fixpoint no stub is claimed twice, so the writes are disjoint.
  int ctas = 0;
  for (std::size_t s = 0; s < n; ++s) {
    const SimtMatchStats& shard = im.shard_stats[s];
    for (std::size_t r = 0; r < shard.result.request_match.size(); ++r) {
      const auto m = shard.result.request_match[r];
      if (m == kNoMatch) continue;
      out.result.request_match[im.req_map[s][r]] =
          static_cast<std::int32_t>(im.rep_msg_idx[s][static_cast<std::size_t>(m)]);
    }
    if (im.shard_busy[s] != 0) ctas += shard.ctas_used;
  }
  out.ctas_used = std::max(1, ctas);
  out.cycles = total_cycles;
  out.seconds = total_seconds;
  ++im.replicated_passes;
  telemetry::count(kShardReplicated);
  telemetry::count(kShardRounds, static_cast<std::uint64_t>(rounds));
}

SimtMatchStats ShardedMatchEngine::match(std::span<const Message> msgs,
                                         std::span<const RecvRequest> reqs) const {
  SimtMatchStats stats;
  match(msgs, reqs, stats);
  return stats;
}

void ShardedMatchEngine::match(std::span<const Message> msgs,
                               std::span<const RecvRequest> reqs,
                               SimtMatchStats& out) const {
  Impl& im = *impl_;
  if (im.shards.size() == 1) {
    im.shards.front().match(msgs, reqs, out);
    return;
  }
  if (const std::uint64_t wc = count_any_source(reqs); wc > 0) {
    telemetry::count(kShardWildcardPosts, wc);
    if (algorithm_kind() == Algorithm::kPatternTable && cfg_.wildcards) {
      // Pattern-table algorithm: replicate the wildcard stubs instead of
      // serializing; the reconciliation fixpoint keeps results bit-identical
      // to an unsharded engine.
      match_replicated_into(msgs, reqs, out);
      if (!cfg_.unexpected && out.result.matched() != msgs.size()) {
        throw std::runtime_error(
            "unexpected message encountered, but the configured semantics prohibit "
            "unexpected messages (pre-post all receives or enable `unexpected`)");
      }
      return;
    }
    // The serialized all-shard pass: one MatchEngine call over the whole
    // batch, exactly as an unsharded engine would run it.  (Rejection of
    // wildcards under wildcard-prohibiting semantics happens inside.)
    match_serialized_into(msgs, reqs, out);
    return;
  }
  match_shards_into(msgs, reqs, out);
  if (!cfg_.unexpected && out.result.matched() != msgs.size()) {
    throw std::runtime_error(
        "unexpected message encountered, but the configured semantics prohibit "
        "unexpected messages (pre-post all receives or enable `unexpected`)");
  }
}

SimtMatchStats ShardedMatchEngine::match_queues(MessageQueue& mq, RecvQueue& rq) const {
  SimtMatchStats stats;
  match_queues(mq, rq, stats);
  return stats;
}

void ShardedMatchEngine::match_queues(MessageQueue& mq, RecvQueue& rq,
                                      SimtMatchStats& out) const {
  Impl& im = *impl_;
  if (im.shards.size() == 1) {
    im.shards.front().match_queues(mq, rq, out);
    return;
  }
  if (const std::uint64_t wc = count_any_source(rq.lanes().src); wc > 0) {
    telemetry::count(kShardWildcardPosts, wc);
    if (algorithm_kind() == Algorithm::kPatternTable && cfg_.wildcards) {
      // Replicated drain: batch-match the views through the stub fixpoint,
      // then compact both queues — same shape as the sharded drain below.
      match_replicated_into(mq.view(), rq.view(), out);
    } else {
      // Serialized drain through shard 0, telemetry staged like any other
      // pass (shard 0's matcher drains and compacts the queues itself).
      if constexpr (telemetry::kEnabled) {
        im.stages[0].reset_values();
        {
          const telemetry::ScopedStage stage(im.stages[0]);
          im.shards.front().match_queues(mq, rq, out);
        }
        telemetry::sink().merge_from(im.stages[0]);
      } else {
        im.shards.front().match_queues(mq, rq, out);
      }
      ++im.serialized_passes;
      telemetry::count(kShardSerialized);
      return;
    }
  } else {
    // Sharded drain: batch-match the queue views (indices refer to the
    // pre-compaction contents), then compact both queues through the flag
    // vectors — the same shape as the engine's multi-comm drain.
    match_shards_into(mq.view(), rq.view(), out);
  }
  im.msg_flags.assign(mq.size(), 0);
  im.req_flags.assign(rq.size(), 0);
  for (std::size_t r = 0; r < out.result.request_match.size(); ++r) {
    const auto m = out.result.request_match[r];
    if (m == kNoMatch) continue;
    im.req_flags[r] = 1;
    im.msg_flags[static_cast<std::size_t>(m)] = 1;
  }
  (void)mq.compact(im.msg_flags);
  (void)rq.compact(im.req_flags);
}

void ShardedMatchEngine::match_batch(std::span<const Message> msg_arrivals,
                                     std::span<const RecvRequest> req_arrivals,
                                     MessageQueue& mq, RecvQueue& rq,
                                     SimtMatchStats& out) const {
  mq.push_n(msg_arrivals);
  rq.push_n(req_arrivals);
  match_queues(mq, rq, out);
}

SimtMatchStats ShardedMatchEngine::match_batch(std::span<const Message> msg_arrivals,
                                               std::span<const RecvRequest> req_arrivals,
                                               MessageQueue& mq, RecvQueue& rq) const {
  SimtMatchStats stats;
  match_batch(msg_arrivals, req_arrivals, mq, rq, stats);
  return stats;
}

}  // namespace simtmsg::matching
