// Differential wall: MatrixMatcher's native kernel (host-side matches plus
// closed-form EventCounters) against the warp-emulated oracle of
// Algorithms 1 and 2 (matrix_oracle.hpp).  Every field of SimtMatchStats
// must agree bit for bit — doubles compared with == — per window over a
// seeded grid of shapes, wildcard mixes and options, and per queue drain
// across several windows, where the final queue contents and the
// compaction counters must agree too.
#include "matrix_oracle.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "matching/envelope.hpp"
#include "matching/matrix_matcher.hpp"
#include "simt/device_spec.hpp"
#include "util/rng.hpp"

namespace simtmsg::matching {
namespace {

constexpr simt::Generation kGenerations[] = {simt::Generation::kKepler,
                                             simt::Generation::kMaxwell,
                                             simt::Generation::kPascal};

/// Window sizes around every warp, block and capacity edge; 1500 exceeds
/// the largest capacity (32 warps x 32 lanes).
constexpr std::size_t kSizes[] = {0, 1, 31, 32, 33, 63, 64, 65, 511, 1024, 1500};

enum class Mix { kExact, kAnySource, kAnyTag, kAllWildcard, kNoMatch, kDuplicates };
constexpr Mix kMixes[] = {Mix::kExact,       Mix::kAnySource, Mix::kAnyTag,
                          Mix::kAllWildcard, Mix::kNoMatch,   Mix::kDuplicates};

struct Words {
  std::vector<std::uint64_t> msgs;
  std::vector<std::uint64_t> reqs;
};

Words make_words(std::size_t n_msgs, std::size_t n_reqs, Mix mix, util::Rng& rng) {
  const auto src = [&] { return static_cast<Rank>(rng.below(6)); };
  const auto tag = [&] { return static_cast<Tag>(rng.below(5)); };
  Words w;
  for (std::size_t i = 0; i < n_msgs; ++i) {
    w.msgs.push_back(mix == Mix::kDuplicates ? scan_word(3, 4) : scan_word(src(), tag()));
  }
  for (std::size_t i = 0; i < n_reqs; ++i) {
    Rank s = src();
    Tag t = tag();
    switch (mix) {
      case Mix::kExact: break;
      case Mix::kAnySource: if (rng.chance(0.3)) s = kAnySource; break;
      case Mix::kAnyTag: if (rng.chance(0.3)) t = kAnyTag; break;
      case Mix::kAllWildcard: s = kAnySource; t = kAnyTag; break;
      case Mix::kNoMatch: t += 1000; break;
      case Mix::kDuplicates: s = 3; t = 4; break;
    }
    w.reqs.push_back(scan_word(s, t));
  }
  return w;
}

std::string counters_diff(const simt::EventCounters& a, const simt::EventCounters& b) {
  std::ostringstream os;
  const auto field = [&](const char* name, std::uint64_t x, std::uint64_t y) {
    if (x != y) os << ' ' << name << ' ' << x << " vs " << y;
  };
  field("alu", a.alu_instructions, b.alu_instructions);
  field("ballot", a.ballot_instructions, b.ballot_instructions);
  field("shuffle", a.shuffle_instructions, b.shuffle_instructions);
  field("branch", a.branch_instructions, b.branch_instructions);
  field("divergent", a.divergent_branches, b.divergent_branches);
  field("shared", a.shared_transactions, b.shared_transactions);
  field("global_tx", a.global_transactions, b.global_transactions);
  field("loads", a.global_load_requests, b.global_load_requests);
  field("stores", a.global_store_requests, b.global_store_requests);
  field("atomics", a.atomic_operations, b.atomic_operations);
  field("stall", a.stall_cycles, b.stall_cycles);
  field("warp_syncs", a.warp_syncs, b.warp_syncs);
  field("barriers", a.cta_barriers, b.cta_barriers);
  return os.str();
}

void expect_identical(const SimtMatchStats& native, const SimtMatchStats& oracle,
                      const std::string& where) {
  EXPECT_EQ(native.result.request_match, oracle.result.request_match) << where;
  EXPECT_EQ(counters_diff(native.scan_events, oracle.scan_events), "") << "scan " << where;
  EXPECT_EQ(counters_diff(native.reduce_events, oracle.reduce_events), "")
      << "reduce " << where;
  EXPECT_EQ(counters_diff(native.compact_events, oracle.compact_events), "")
      << "compact " << where;
  EXPECT_TRUE(native.cycles == oracle.cycles)
      << where << " cycles " << native.cycles << " vs " << oracle.cycles;
  EXPECT_TRUE(native.seconds == oracle.seconds)
      << where << " seconds " << native.seconds << " vs " << oracle.seconds;
  EXPECT_EQ(native.iterations, oracle.iterations) << where;
  EXPECT_EQ(native.warps_used, oracle.warps_used) << where;
  EXPECT_EQ(native.ctas_used, oracle.ctas_used) << where;
}

std::string describe(const MatrixMatcher::Options& o, simt::Generation gen) {
  std::ostringstream os;
  os << "gen=" << static_cast<int>(gen) << " width=" << o.warp_width
     << " max_warps=" << o.max_warps << " chunk=" << o.column_chunk
     << " window=" << o.request_window << " pipelined=" << o.pipelined
     << " chain=" << o.reduce_chain_cycles;
  return os.str();
}

class MatrixOracle : public ::testing::TestWithParam<simt::Generation> {};

// Every size pair and wildcard mix under the default options: the single
// warp path, every warp count and the capacity/request_window clamps.
TEST_P(MatrixOracle, EverySizeAndMixAtDefaults) {
  const MatrixMatcher matcher(simt::device(GetParam()));
  util::Rng rng(0x3a7f'0001 + static_cast<std::uint64_t>(GetParam()));
  oracle::MatrixOracleWorkspace ows;
  SimtMatchStats native;
  SimtMatchStats expected;
  for (const std::size_t n_msgs : kSizes) {
    for (const std::size_t n_reqs : kSizes) {
      for (const Mix mix : kMixes) {
        const Words w = make_words(n_msgs, n_reqs, mix, rng);
        matcher.match_words_into(w.msgs, w.reqs, native);
        oracle::match_words_into(matcher, w.msgs, w.reqs, ows, expected);
        expect_identical(native, expected,
                         "msgs=" + std::to_string(n_msgs) + " reqs=" + std::to_string(n_reqs) +
                             " mix=" + std::to_string(static_cast<int>(mix)));
      }
    }
  }
}

// The option grid: warp widths, warp caps, column chunks, request windows,
// pipelining and a fractional reduce chain (its truncation to whole stall
// cycles), each with a few seeded window shapes.
TEST_P(MatrixOracle, OptionGrid) {
  util::Rng rng(0x3a7f'0002 + static_cast<std::uint64_t>(GetParam()));
  oracle::MatrixOracleWorkspace ows;
  SimtMatchStats native;
  SimtMatchStats expected;
  for (const int width : {1, 2, 3, 4, 8, 16, 32}) {
    for (const int max_warps : {1, 7, 32}) {
      for (const int chunk : {1, 7, 64}) {
        for (const int window : {1, 100, 1024}) {
          for (const bool pipelined : {true, false}) {
            for (const double chain : {40.0, 40.7}) {
              MatrixMatcher::Options opt;
              opt.warp_width = width;
              opt.max_warps = max_warps;
              opt.column_chunk = chunk;
              opt.request_window = window;
              opt.pipelined = pipelined;
              opt.reduce_chain_cycles = chain;
              const MatrixMatcher matcher(simt::device(GetParam()), opt);
              for (int draw = 0; draw < 2; ++draw) {
                const std::size_t n_msgs = kSizes[rng.below(std::size(kSizes))];
                const std::size_t n_reqs = kSizes[rng.below(std::size(kSizes))];
                const Mix mix = kMixes[rng.below(std::size(kMixes))];
                const Words w = make_words(n_msgs, n_reqs, mix, rng);
                matcher.match_words_into(w.msgs, w.reqs, native);
                oracle::match_words_into(matcher, w.msgs, w.reqs, ows, expected);
                expect_identical(native, expected,
                                 describe(opt, GetParam()) + " msgs=" + std::to_string(n_msgs) +
                                     " reqs=" + std::to_string(n_reqs) +
                                     " mix=" + std::to_string(static_cast<int>(mix)));
              }
            }
          }
        }
      }
    }
  }
}

// Whole drains across several message chunks and request windows: the
// per-window stats sums, the compaction counters and the queues left
// behind must all agree.
TEST_P(MatrixOracle, QueueDrainsAcrossWindows) {
  util::Rng rng(0x3a7f'0003 + static_cast<std::uint64_t>(GetParam()));
  int drains = 0;
  int multi_window = 0;
  for (const int width : {4, 32}) {
    for (const int max_warps : {2, 7, 32}) {
      for (const int window : {48, 1024}) {
        for (const Mix mix : kMixes) {
          MatrixMatcher::Options opt;
          opt.warp_width = width;
          opt.max_warps = max_warps;
          opt.request_window = window;
          opt.column_chunk = 7;
          opt.reduce_chain_cycles = 40.7;
          const MatrixMatcher matcher(simt::device(GetParam()), opt);
          const std::size_t n_msgs = 200 + rng.below(1400);
          const std::size_t n_reqs = 200 + rng.below(1400);
          const Words w = make_words(n_msgs, n_reqs, mix, rng);

          MessageQueue mq_native;
          RecvQueue rq_native;
          for (const auto word : w.msgs) {
            Message m;
            m.env = {.src = static_cast<Rank>(word >> 32), .tag = static_cast<Tag>(word),
                     .comm = 0};
            mq_native.push(m);
          }
          for (const auto word : w.reqs) {
            RecvRequest r;
            r.env = {.src = static_cast<Rank>(word >> 32), .tag = static_cast<Tag>(word),
                     .comm = 0};
            rq_native.push(r);
          }
          MessageQueue mq_oracle = mq_native;
          RecvQueue rq_oracle = rq_native;

          const SimtMatchStats native = matcher.match_queues(mq_native, rq_native);
          SimtMatchStats expected;
          oracle::match_queues_into(matcher, mq_oracle, rq_oracle, expected);

          ++drains;
          const std::string where = describe(opt, GetParam()) + " msgs=" +
                                    std::to_string(n_msgs) + " reqs=" +
                                    std::to_string(n_reqs) +
                                    " mix=" + std::to_string(static_cast<int>(mix));
          expect_identical(native, expected, where);
          multi_window += expected.iterations > 1;
          const std::vector<Message> left_native(mq_native.view().begin(),
                                                 mq_native.view().end());
          const std::vector<Message> left_oracle(mq_oracle.view().begin(),
                                                 mq_oracle.view().end());
          EXPECT_EQ(left_native, left_oracle) << where;
          const std::vector<RecvRequest> open_native(rq_native.view().begin(),
                                                     rq_native.view().end());
          const std::vector<RecvRequest> open_oracle(rq_oracle.view().begin(),
                                                     rq_oracle.view().end());
          EXPECT_EQ(open_native, open_oracle) << where;
        }
      }
    }
  }
  // Most drains must span several windows, or the wall tests little.
  EXPECT_GT(2 * multi_window, drains);
}

INSTANTIATE_TEST_SUITE_P(Generations, MatrixOracle, ::testing::ValuesIn(kGenerations),
                         [](const ::testing::TestParamInfo<simt::Generation>& info) {
                           return std::string(simt::device(info.param).arch);
                         });

}  // namespace
}  // namespace simtmsg::matching
