#include "runtime/network.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace simtmsg::runtime {
namespace {

TEST(Network, LatencyAddsToInjectionTime) {
  Network net({.latency_us = 2.0, .bandwidth_gbs = 40.0, .jitter_us = 0.0,
               .seed = 1, .faults = {}});
  const double t = net.arrival_time(10.0, 0, /*wire_seq=*/0);
  EXPECT_DOUBLE_EQ(t, 12.0);
}

TEST(Network, BandwidthTermScalesWithBytes) {
  Network net({.latency_us = 0.0, .bandwidth_gbs = 40.0, .jitter_us = 0.0,
               .seed = 1, .faults = {}});
  // 40 GB/s = 40e3 bytes/us: 40,000 bytes take 1 us.
  EXPECT_NEAR(net.arrival_time(0.0, 40000, 0), 1.0, 1e-12);
  EXPECT_NEAR(net.arrival_time(0.0, 80000, 1), 2.0, 1e-12);
}

TEST(Network, JitterBoundedAndNonNegative) {
  Network net({.latency_us = 1.0, .bandwidth_gbs = 40.0, .jitter_us = 0.5,
               .seed = 7, .faults = {}});
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const double t = net.arrival_time(0.0, 0, i);
    EXPECT_GE(t, 1.0);
    EXPECT_LT(t, 1.5);
  }
}

TEST(Network, ZeroJitterIsDeterministic) {
  Network a({.latency_us = 1.0, .bandwidth_gbs = 10.0, .jitter_us = 0.0, .seed = 1, .faults = {}});
  Network b({.latency_us = 1.0, .bandwidth_gbs = 10.0, .jitter_us = 0.0, .seed = 2, .faults = {}});
  EXPECT_DOUBLE_EQ(a.arrival_time(5.0, 100, 0), b.arrival_time(5.0, 100, 0));
}

// Regression: arrival_time used to mutate a member RNG, so the jitter draw
// depended on call order (a data race under ExecutionPolicy{N>1}).  Jitter
// is now derived statelessly from (seed, wire_seq) — the same wire sequence
// always gets the same draw, regardless of interleaving.
TEST(Network, JitterIsAFunctionOfWireSequence) {
  Network net({.latency_us = 1.0, .bandwidth_gbs = 40.0, .jitter_us = 0.5,
               .seed = 42, .faults = {}});
  const double first = net.arrival_time(0.0, 0, 17);
  // Interleave draws for other sequences, then re-ask for 17.
  for (std::uint64_t i = 0; i < 100; ++i) (void)net.arrival_time(0.0, 0, i);
  EXPECT_DOUBLE_EQ(net.arrival_time(0.0, 0, 17), first);
}

TEST(Network, DistinctWireSequencesGetIndependentJitter) {
  Network net({.latency_us = 1.0, .bandwidth_gbs = 40.0, .jitter_us = 0.5,
               .seed = 42, .faults = {}});
  // Not a hard guarantee per pair, but over 64 sequences at least two draws
  // must differ or the jitter stream is degenerate.
  bool any_differ = false;
  const double t0 = net.arrival_time(0.0, 0, 0);
  for (std::uint64_t i = 1; i < 64 && !any_differ; ++i) {
    any_differ = net.arrival_time(0.0, 0, i) != t0;
  }
  EXPECT_TRUE(any_differ);
}

// Regression (TSan-covered in the chaos CI job): Network is const and
// internally stateless, so concurrent arrival_time / plan calls from
// multiple threads must race-freely produce the single-threaded answers.
TEST(Network, ConcurrentCallsMatchSerialAnswers) {
  FaultModel faults;
  faults.drop_prob = 0.2;
  faults.dup_prob = 0.2;
  faults.corrupt_prob = 0.2;
  faults.delay_spike_prob = 0.2;
  faults.delay_spike_us = 3.0;
  const NetworkConfig cfg{.latency_us = 1.0,
                          .bandwidth_gbs = 40.0,
                          .jitter_us = 0.5,
                          .seed = 99,
                          .faults = faults};
  const Network net(cfg);
  constexpr std::uint64_t kSeqs = 512;

  std::vector<double> serial(kSeqs);
  std::vector<WirePlan> serial_plans(kSeqs);
  for (std::uint64_t i = 0; i < kSeqs; ++i) {
    serial[i] = net.arrival_time(0.0, 64, i);
    Packet p{.from = 0, .to = 1, .env = {}, .payload = i, .bytes = 64,
             .arrival_us = 0.0, .sequence = i};
    serial_plans[i] = net.plan(p, 0.0);
  }

  constexpr int kThreads = 4;
  std::vector<std::vector<double>> got(kThreads, std::vector<double>(kSeqs));
  std::vector<std::vector<WirePlan>> got_plans(kThreads,
                                               std::vector<WirePlan>(kSeqs));
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kSeqs; ++i) {
        got[static_cast<std::size_t>(t)][i] = net.arrival_time(0.0, 64, i);
        Packet p{.from = 0, .to = 1, .env = {}, .payload = i, .bytes = 64,
                 .arrival_us = 0.0, .sequence = i};
        got_plans[static_cast<std::size_t>(t)][i] = net.plan(p, 0.0);
      }
    });
  }
  for (auto& w : workers) w.join();

  for (int t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 0; i < kSeqs; ++i) {
      EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(t)][i], serial[i]);
      const auto& a = got_plans[static_cast<std::size_t>(t)][i];
      const auto& b = serial_plans[i];
      EXPECT_EQ(a.fault.drop, b.fault.drop);
      EXPECT_EQ(a.fault.duplicate, b.fault.duplicate);
      EXPECT_EQ(a.fault.corrupt, b.fault.corrupt);
      EXPECT_DOUBLE_EQ(a.fault.extra_delay_us, b.fault.extra_delay_us);
      EXPECT_EQ(a.corrupt_bit, b.corrupt_bit);
      EXPECT_DOUBLE_EQ(a.arrival_us, b.arrival_us);
      EXPECT_DOUBLE_EQ(a.dup_arrival_us, b.dup_arrival_us);
    }
  }
}

TEST(Network, FaultModelInactiveByDefault) {
  const NetworkConfig cfg{};
  EXPECT_FALSE(cfg.faults.active());
  const Network net(cfg);
  Packet p{.from = 0, .to = 1, .env = {}, .payload = 1, .bytes = 8,
           .arrival_us = 0.0, .sequence = 0};
  const WirePlan plan = net.plan(p, 0.0);
  EXPECT_FALSE(plan.fault.drop);
  EXPECT_FALSE(plan.fault.duplicate);
  EXPECT_FALSE(plan.fault.corrupt);
  EXPECT_DOUBLE_EQ(plan.fault.extra_delay_us, 0.0);
}

TEST(Network, ScriptOverridesProbabilisticDraws) {
  NetworkConfig cfg{.latency_us = 1.0, .seed = 5, .faults = {}};
  cfg.faults.script = [](const Packet& p) {
    return WireFault{.drop = p.sequence == 3};
  };
  const Network net(cfg);
  for (std::uint64_t i = 0; i < 6; ++i) {
    Packet p{.from = 0, .to = 1, .env = {}, .payload = i, .bytes = 8,
             .arrival_us = 0.0, .sequence = i};
    EXPECT_EQ(net.plan(p, 0.0).fault.drop, i == 3);
  }
}

}  // namespace
}  // namespace simtmsg::runtime
