#include "runtime/gas.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace simtmsg::runtime {
namespace {

NetworkConfig quiet_net() {
  return {.latency_us = 1.0, .bandwidth_gbs = 40.0, .jitter_us = 0.0, .seed = 1};
}

/// Every packet due by `until_us`, in the order the GAS released them.
std::vector<Packet> deliver(GlobalAddressSpace& gas, double until_us) {
  std::vector<Packet> out;
  const std::size_t delivered = gas.deliver_raw_until(until_us, out);
  EXPECT_EQ(delivered, out.size());
  return out;
}

TEST(Gas, RejectsEmptyCluster) {
  EXPECT_THROW(GlobalAddressSpace(0, quiet_net()), std::invalid_argument);
}

TEST(Gas, RemoteEnqueueDeliversAfterLatency) {
  GlobalAddressSpace gas(2, quiet_net());
  const double arrival =
      gas.remote_enqueue(0, 1, {.src = 0, .tag = 5, .comm = 0}, 99, 8, 0.0);
  EXPECT_GT(arrival, 0.0);
  EXPECT_TRUE(deliver(gas, arrival - 0.001).empty());  // Not yet.
  EXPECT_FALSE(gas.idle());
  const auto due = deliver(gas, arrival);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].to, 1);
  EXPECT_EQ(due[0].payload, 99u);
  EXPECT_EQ(due[0].env.tag, 5);
  EXPECT_TRUE(gas.idle());
  EXPECT_TRUE(gas.incoming(1).empty());  // The caller owns what is released.
}

TEST(Gas, OutOfRangeDestinationThrows) {
  GlobalAddressSpace gas(2, quiet_net());
  EXPECT_THROW(gas.remote_enqueue(0, 5, {}, 0, 8, 0.0), std::out_of_range);
}

TEST(Gas, PerPairFifoWithoutJitter) {
  GlobalAddressSpace gas(2, quiet_net());
  for (int i = 0; i < 10; ++i) {
    gas.remote_enqueue(0, 1, {.src = 0, .tag = i, .comm = 0},
                       static_cast<std::uint64_t>(i), 8, static_cast<double>(i) * 0.01);
  }
  const auto due = deliver(gas, 1e9);
  ASSERT_EQ(due.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(due[static_cast<std::size_t>(i)].env.tag, i);
  }
}

TEST(Gas, SimultaneousArrivalsBreakTiesByInjectionOrder) {
  GlobalAddressSpace gas(2, quiet_net());
  gas.remote_enqueue(0, 1, {.src = 0, .tag = 1, .comm = 0}, 1, 8, 0.0);
  gas.remote_enqueue(0, 1, {.src = 0, .tag = 2, .comm = 0}, 2, 8, 0.0);
  const auto due = deliver(gas, 1e9);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].arrival_us, due[1].arrival_us);  // A genuine tie.
  EXPECT_EQ(due[0].env.tag, 1);
  EXPECT_EQ(due[1].env.tag, 2);
}

TEST(Gas, NextArrivalTracksEarliestPacket) {
  GlobalAddressSpace gas(3, quiet_net());
  EXPECT_LT(gas.next_arrival(), 0.0);
  EXPECT_TRUE(gas.idle());
  gas.remote_enqueue(0, 1, {}, 0, 0, 5.0);
  gas.remote_enqueue(0, 2, {}, 0, 0, 1.0);
  EXPECT_NEAR(gas.next_arrival(), 2.0, 1e-9);  // 1.0 + latency 1.0, no wire term.
  EXPECT_FALSE(gas.idle());
}

TEST(Gas, MessagesQueueSeparatelyPerNode) {
  GlobalAddressSpace gas(3, quiet_net());
  gas.remote_enqueue(0, 1, {.src = 0, .tag = 1, .comm = 0}, 0, 8, 0.0);
  gas.remote_enqueue(0, 2, {.src = 0, .tag = 2, .comm = 0}, 0, 8, 0.0);
  const auto due = deliver(gas, 1e9);
  std::vector<int> per_node(3, 0);
  for (const Packet& p : due) {
    ++per_node[static_cast<std::size_t>(p.to)];
    EXPECT_EQ(p.env.tag, p.to);  // Each packet addressed to its own node.
  }
  EXPECT_EQ(per_node, (std::vector<int>{0, 1, 1}));
}

}  // namespace
}  // namespace simtmsg::runtime
