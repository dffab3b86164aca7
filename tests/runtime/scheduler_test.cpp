// The scheduler's own wall: runnable-set / RTO-wheel unit tests driven by
// probe lambdas over test-local state, a seeded random differential test
// against the scan oracle, config validation, and the cluster-level wall —
// full scenarios whose scheduler must agree with a scan of the whole fleet
// after every tick — plus a 1k-node scale smoke.
#include "runtime/scheduler.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "runtime/bsp.hpp"
#include "runtime/collectives.hpp"
#include "runtime/endpoint.hpp"
#include "scan_oracle.hpp"
#include "util/rng.hpp"

namespace simtmsg::runtime {
namespace {

// ---------------------------------------------------------------------------
// Wheel / runnable-set unit tests.  The probes read this fixture's state;
// the scheduler must mirror it through wake()/rto_touched()/stepped().

class EventWheelTest : public ::testing::Test {
 protected:
  static constexpr int kNodes = 8;

  Scheduler::Probe probe() {
    return Scheduler::Probe{
        .runnable = [this](int n) { return runnable_[static_cast<std::size_t>(n)]; },
        .rto_deadline = [this](int n) { return deadline_[static_cast<std::size_t>(n)]; },
    };
  }

  std::vector<bool> runnable_ = std::vector<bool>(kNodes, false);
  std::vector<double> deadline_ = std::vector<double>(kNodes, -1.0);
  Scheduler scheduler_{kNodes, probe()};
};

TEST_F(EventWheelTest, StartsIdle) {
  std::vector<int> out{99};
  scheduler_.collect_active(out);
  EXPECT_TRUE(out.empty());
  EXPECT_LT(scheduler_.next_rto_deadline(), 0.0);
  EXPECT_TRUE(scheduler_.rto_idle());
}

TEST_F(EventWheelTest, WakeAddsOnlyActuallyRunnableNodes) {
  runnable_[3] = true;
  scheduler_.wake(3);
  scheduler_.wake(5);  // Probe says idle: a spurious wake must not stick.
  std::vector<int> out;
  scheduler_.collect_active(out);
  EXPECT_EQ(out, (std::vector<int>{3}));
}

TEST_F(EventWheelTest, ActiveSetIsAscendingAndDedupes) {
  for (int n : {6, 2, 4, 2, 6}) {
    runnable_[static_cast<std::size_t>(n)] = true;
    scheduler_.wake(n);
  }
  std::vector<int> out;
  scheduler_.collect_active(out);
  EXPECT_EQ(out, (std::vector<int>{2, 4, 6}));
}

TEST_F(EventWheelTest, SteppedRetiresIdleNodes) {
  runnable_[1] = runnable_[2] = true;
  scheduler_.wake(1);
  scheduler_.wake(2);
  // Node 1 drained its queues; node 2 still has an unmatchable pair.
  runnable_[1] = false;
  scheduler_.stepped(1, false);
  scheduler_.stepped(2, true);
  std::vector<int> out;
  scheduler_.collect_active(out);
  EXPECT_EQ(out, (std::vector<int>{2}));
}

TEST_F(EventWheelTest, WheelOrdersDeadlines) {
  deadline_[4] = 30.0;
  deadline_[1] = 10.0;
  deadline_[6] = 20.0;
  for (int n : {4, 1, 6}) scheduler_.rto_touched(n);
  EXPECT_DOUBLE_EQ(scheduler_.next_rto_deadline(), 10.0);
  EXPECT_FALSE(scheduler_.rto_idle());

  std::vector<int> due;
  scheduler_.collect_due(20.0, due);
  EXPECT_EQ(due, (std::vector<int>{1, 6}));  // Ascending node id, not deadline.
}

TEST_F(EventWheelTest, CoalescedDeadlinesAllFire) {
  deadline_[2] = deadline_[5] = deadline_[7] = 42.0;
  for (int n : {2, 5, 7}) scheduler_.rto_touched(n);
  std::vector<int> due;
  scheduler_.collect_due(42.0, due);
  EXPECT_EQ(due, (std::vector<int>{2, 5, 7}));
}

TEST_F(EventWheelTest, ReArmMovesTheEntry) {
  deadline_[3] = 10.0;
  scheduler_.rto_touched(3);
  // The timer fired and backed off: same node, later deadline.
  deadline_[3] = 25.0;
  scheduler_.rto_touched(3);
  std::vector<int> due;
  scheduler_.collect_due(10.0, due);
  EXPECT_TRUE(due.empty()) << "stale entry survived the re-arm";
  EXPECT_DOUBLE_EQ(scheduler_.next_rto_deadline(), 25.0);
}

TEST_F(EventWheelTest, DisarmRemovesTheEntry) {
  deadline_[3] = 10.0;
  scheduler_.rto_touched(3);
  deadline_[3] = -1.0;  // Last outstanding send acked.
  scheduler_.rto_touched(3);
  EXPECT_TRUE(scheduler_.rto_idle());
  EXPECT_LT(scheduler_.next_rto_deadline(), 0.0);
}

TEST_F(EventWheelTest, RedundantTouchIsANoOp) {
  deadline_[0] = 5.0;
  scheduler_.rto_touched(0);
  scheduler_.rto_touched(0);
  scheduler_.rto_touched(0);
  std::vector<int> due;
  scheduler_.collect_due(5.0, due);
  EXPECT_EQ(due, (std::vector<int>{0}));
}

TEST_F(EventWheelTest, CollectDueDoesNotConsumeTheWheel) {
  deadline_[1] = 10.0;
  scheduler_.rto_touched(1);
  std::vector<int> due;
  scheduler_.collect_due(10.0, due);
  ASSERT_EQ(due.size(), 1u);
  // Until the cluster expires the channel and calls rto_touched, the entry
  // must still be there (expire may fire nothing if the probe re-checks).
  scheduler_.collect_due(10.0, due);
  EXPECT_EQ(due, (std::vector<int>{1}));
}

// Random state changes, each reported through the hook the cluster calls
// for it (docs/runtime.md), with every query compared against the scan
// oracle after every event.  Deadlines come from a small grid so timers
// coalesce and re-arms land on keys other nodes hold.
TEST_F(EventWheelTest, AgreesWithScanOracleUnderRandomEvents) {
  const ScanOracle oracle(kNodes, probe());
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    Scheduler sched(kNodes, probe());
    runnable_.assign(kNodes, false);
    deadline_.assign(kNodes, -1.0);
    for (int event = 0; event < 2000; ++event) {
      const int n = static_cast<int>(rng.below(kNodes));
      const auto i = static_cast<std::size_t>(n);
      switch (rng.below(4)) {
        case 0:  // A queue push: may make the node runnable, never idle.
          runnable_[i] = runnable_[i] || rng.chance(0.5);
          sched.wake(n);
          break;
        case 1:  // An engine step (or a cancel) reports the node's verdict.
          runnable_[i] = rng.chance(0.5);
          sched.stepped(n, runnable_[i]);
          break;
        case 2:  // Send tracked, ack processed, or timers expired.
          deadline_[i] = rng.chance(0.3) ? -1.0 : static_cast<double>(rng.below(16));
          sched.rto_touched(n);
          break;
        default:  // A hook with no state change behind it must be harmless.
          if (rng.chance(0.5)) {
            sched.wake(n);
          } else {
            sched.rto_touched(n);
          }
          break;
      }
      const double now = static_cast<double>(rng.below(18));
      ASSERT_TRUE(oracle.agrees(sched, now)) << "seed " << seed << ", event " << event;
    }
  }
}

// ---------------------------------------------------------------------------
// Validation.

// kEventDriven is the only policy; every other value — including 0, the
// retired lockstep policy's — is a typed configuration error.
TEST(SchedulerValidation, ClusterRejectsOutOfRangePolicy) {
  for (const int bad : {0, 42}) {
    ClusterConfig cfg;
    cfg.scheduler = static_cast<SchedulerPolicy>(bad);
    try {
      Cluster c(cfg);
      FAIL() << "constructor should have thrown for " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("scheduler"), std::string::npos) << e.what();
    }
  }
}

TEST(SchedulerValidation, ClusterNamesTheBadNodeCount) {
  ClusterConfig cfg;
  cfg.nodes = -3;
  try {
    Cluster c(cfg);
    FAIL() << "constructor should have thrown";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nodes"), std::string::npos) << what;
    EXPECT_NE(what.find("-3"), std::string::npos) << what;
  }
}

TEST(SchedulerValidation, ClusterNamesTheBadShardCount) {
  ClusterConfig cfg;
  cfg.shards_per_node = 0;
  try {
    Cluster c(cfg);
    FAIL() << "constructor should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("shards_per_node"), std::string::npos)
        << e.what();
  }
}

TEST(SchedulerValidation, PolicyNamesRoundTrip) {
  EXPECT_EQ(to_string(NodeActivity::kIdle), "idle");
  EXPECT_EQ(to_string(NodeActivity::kStarved), "starved");
  EXPECT_EQ(to_string(NodeActivity::kRunnable), "runnable");
  EXPECT_EQ(to_string(NodeActivity::kAwaitingRetransmit), "awaiting retransmit");
}

// ---------------------------------------------------------------------------
// Diagnostics: the scheduler's per-node view.

TEST(NodeActivityView, ReportsIdleStarvedRunnable) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  Cluster c(cfg);
  EXPECT_EQ(c.node_activity(0), NodeActivity::kIdle);
  (void)c.irecv(1, 0, 7);
  EXPECT_EQ(c.node_activity(1), NodeActivity::kStarved);
  c.send(0, 2, 9, 1);
  (void)c.irecv(2, 0, 9);
  c.run_until_quiescent();
  EXPECT_EQ(c.node_activity(2), NodeActivity::kIdle);   // Matched and drained.
  EXPECT_EQ(c.node_activity(1), NodeActivity::kStarved);  // Still waiting.
  EXPECT_THROW((void)c.node_activity(99), std::out_of_range);
}

TEST(NodeActivityView, ReportsAwaitingRetransmit) {
  ClusterConfig cfg;
  cfg.reliability.enabled = true;
  cfg.network.faults.script = [](const Packet&) {
    return WireFault{.drop = true};  // Nothing ever arrives.
  };
  Cluster c(cfg);
  c.send(0, 1, 3, 1);
  (void)c.progress();
  EXPECT_EQ(c.node_activity(0), NodeActivity::kAwaitingRetransmit);
}

// ---------------------------------------------------------------------------
// Cluster-level wall: without it nothing would catch a missed wake() or
// rto_touched() hook.  Each scenario settles through `settle` — the scan
// oracle's tick-by-tick loop, which checks the scheduler against a scan of
// the whole fleet after every tick — and checks again after every call
// that ticks inside the library (barrier, wait, collectives, BSP sync).
// The checked run must also leave the same snapshot bytes as a plain run
// settled by Cluster::run_until_quiescent(): checking perturbs nothing.

using Settle = std::function<void(Cluster&)>;
using Scenario = std::function<void(Cluster&, const Settle&)>;

std::string snapshot_json(const ClusterConfig& cfg, const Scenario& scenario,
                          const Settle& settle) {
  Cluster c(cfg);
  scenario(c, settle);
  return c.snapshot().to_json().dump();
}

void expect_scheduler_matches_scan(const ClusterConfig& cfg, const Scenario& scenario) {
  const std::string checked = snapshot_json(cfg, scenario, &ScanOracle::run_until_quiescent);
  // A scheduler that disagrees with the scan may never quiesce on its own.
  if (::testing::Test::HasFailure()) return;
  const std::string plain =
      snapshot_json(cfg, scenario, [](Cluster& c) { c.run_until_quiescent(); });
  EXPECT_EQ(checked, plain);
}

TEST(SchedulerEquivalence, UniformExchangeWithJitter) {
  ClusterConfig cfg;
  cfg.nodes = 8;
  cfg.network.jitter_us = 1.5;
  expect_scheduler_matches_scan(cfg, [](Cluster& c, const Settle& settle) {
    for (int n = 0; n < 8; ++n) {
      for (int t = 0; t < 6; ++t) {
        (void)c.irecv(n, (n + 1) % 8, t);
        c.send(n, (n + 7) % 8, t, static_cast<std::uint64_t>(n * 10 + t));
        EXPECT_TRUE(ScanOracle::check(c));
      }
    }
    settle(c);
  });
}

TEST(SchedulerEquivalence, FaultedReliabilityTraffic) {
  ClusterConfig cfg;
  cfg.nodes = 6;
  cfg.network.jitter_us = 0.7;
  cfg.network.faults.drop_prob = 0.2;
  cfg.network.faults.dup_prob = 0.1;
  cfg.network.faults.corrupt_prob = 0.05;
  cfg.reliability.enabled = true;
  expect_scheduler_matches_scan(cfg, [](Cluster& c, const Settle& settle) {
    for (int n = 1; n < 6; ++n) {
      for (int t = 0; t < 5; ++t) {
        (void)c.irecv(0, n, t);
        c.send(n, 0, t, static_cast<std::uint64_t>(n * 100 + t));
        EXPECT_TRUE(ScanOracle::check(c));
      }
    }
    settle(c);
  });
}

TEST(SchedulerEquivalence, RetryExhaustionAndFailures) {
  ClusterConfig cfg;
  cfg.network.faults.drop_prob = 1.0;  // Every data packet lost, forever.
  cfg.reliability.enabled = true;
  cfg.reliability.max_attempts = 3;
  expect_scheduler_matches_scan(cfg, [](Cluster& c, const Settle& settle) {
    c.send(0, 1, 1, 11);
    c.send(0, 1, 2, 22);
    EXPECT_TRUE(ScanOracle::check(c));
    settle(c);
    EXPECT_EQ(c.delivery_failures().size(), 2u);
  });
}

TEST(SchedulerEquivalence, StrictSemanticsBarrier) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.semantics.wildcards = false;
  cfg.semantics.ordering = false;
  cfg.semantics.unexpected = false;
  cfg.semantics.partitions = 2;
  expect_scheduler_matches_scan(cfg, [](Cluster& c, const Settle&) {
    for (int n = 1; n < 4; ++n) {
      (void)c.irecv(0, n, n);
      c.send(n, 0, n, static_cast<std::uint64_t>(n));
      EXPECT_TRUE(ScanOracle::check(c));
    }
    c.barrier();
    EXPECT_TRUE(ScanOracle::check(c));
  });
}

TEST(SchedulerEquivalence, ShardedNodes) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.shards_per_node = 4;
  expect_scheduler_matches_scan(cfg, [](Cluster& c, const Settle& settle) {
    for (int src = 1; src < 4; ++src) {
      for (int t = 0; t < 8; ++t) {
        (void)c.irecv(0, src, t);
        c.send(src, 0, t, static_cast<std::uint64_t>(src * 10 + t));
        EXPECT_TRUE(ScanOracle::check(c));
      }
    }
    settle(c);
  });
}

TEST(SchedulerEquivalence, Collectives) {
  ClusterConfig cfg;
  cfg.nodes = 7;
  expect_scheduler_matches_scan(cfg, [](Cluster& c, const Settle&) {
    Collectives coll(c);
    (void)coll.broadcast(2, 0xABC);
    EXPECT_TRUE(ScanOracle::check(c));
    std::vector<std::uint64_t> contrib;
    for (int n = 0; n < 7; ++n) contrib.push_back(static_cast<std::uint64_t>(n + 1));
    (void)coll.allreduce_sum(contrib);
    EXPECT_TRUE(ScanOracle::check(c));
    (void)coll.allgather(contrib);
    EXPECT_TRUE(ScanOracle::check(c));
  });
}

TEST(SchedulerEquivalence, BspSupersteps) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.semantics.wildcards = false;
  cfg.semantics.ordering = false;
  cfg.semantics.partitions = 4;
  expect_scheduler_matches_scan(cfg, [](Cluster& c, const Settle&) {
    BspSession bsp(c);
    for (int step = 0; step < 3; ++step) {
      for (int n = 0; n < 4; ++n) {
        (void)bsp.irecv(n, (n + 1) % 4, 0);
        bsp.send(n, (n + 3) % 4, 0, static_cast<std::uint64_t>(step * 10 + n));
      }
      EXPECT_TRUE(ScanOracle::check(c));
      bsp.sync();
      EXPECT_TRUE(ScanOracle::check(c));
    }
  });
}

// Messages that arrive before their receives: only irecv's wake() makes
// node 0 runnable.  Node 2 holds a receive that never matches beside a
// message it does not want (runnable but unmatchable) until cancel()
// retires it through stepped().
TEST(SchedulerEquivalence, LateReceivesAndCancel) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  expect_scheduler_matches_scan(cfg, [](Cluster& c, const Settle& settle) {
    for (int n = 1; n < 4; ++n) c.send(n, 0, n, static_cast<std::uint64_t>(n));
    c.send(1, 2, 99, 7);
    settle(c);
    std::vector<RecvHandle> hs;
    for (int n = 1; n < 4; ++n) {
      hs.push_back(c.irecv(0, n, n));
      EXPECT_TRUE(ScanOracle::check(c));
    }
    const RecvHandle stray = c.irecv(2, 1, 5);
    EXPECT_TRUE(ScanOracle::check(c));
    settle(c);
    EXPECT_TRUE(c.cancel(stray));
    EXPECT_TRUE(ScanOracle::check(c));
    for (const auto& h : hs) EXPECT_TRUE(c.result(h).has_value());
  });
}

// ---------------------------------------------------------------------------
// Scale smoke (also the CI ASan target): a 1k-node fleet with only a small
// hot set active must complete quickly and never step the cold nodes.

TEST(SchedulerScale, ThousandNodeHotSetStaysSmall) {
  ClusterConfig cfg;
  cfg.nodes = 1000;
  Cluster c(cfg);
  // 8 hot nodes exchange; 992 nodes never see traffic.
  std::vector<RecvHandle> hs;
  for (int n = 0; n < 8; ++n) {
    for (int t = 0; t < 4; ++t) {
      hs.push_back(c.irecv(n, (n + 1) % 8, t));
      c.send(n, (n + 7) % 8, t, static_cast<std::uint64_t>(n * 10 + t));
    }
  }
  c.run_until_quiescent();
  for (const auto& h : hs) EXPECT_TRUE(c.result(h).has_value());
  const auto r = c.snapshot();
  EXPECT_LE(r.gauges.at("runtime.scheduler.active_set_peak"), 8.0);
  // Matching work never touched the cold 992 nodes.
  EXPECT_EQ(r.counters.at("runtime.scheduler.nodes_stepped"),
            r.calls);  // Every engine step was a scheduled step.
}

TEST(SchedulerScale, ThousandNodeRingAgreesWithScanEveryTick) {
  ClusterConfig cfg;
  cfg.nodes = 1000;
  Cluster c(cfg);
  std::vector<RecvHandle> hs;
  for (int n = 0; n < 1000; ++n) {
    hs.push_back(c.irecv(n, (n + 1) % 1000, 0));
    c.send(n, (n + 999) % 1000, 0, static_cast<std::uint64_t>(n));
  }
  EXPECT_TRUE(ScanOracle::check(c));
  ScanOracle::run_until_quiescent(c);
  for (std::size_t i = 0; i < hs.size(); ++i) {
    const auto r = c.result(hs[i]);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->payload, static_cast<std::uint64_t>((i + 1) % 1000));
  }
}

}  // namespace
}  // namespace simtmsg::runtime
