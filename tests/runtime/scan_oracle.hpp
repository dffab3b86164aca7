// The scan oracle: the scheduler's answers recomputed the slow, obvious way
// — every query scans all nodes through the same Scheduler::Probe the
// scheduler was built with.  This is the seed's lockstep loop (formerly the
// library's LockstepScheduler), kept only as a test-side reference: the
// incremental runnable set and RTO wheel are correct exactly when they
// agree with it after every state change.  At the cluster level the oracle
// is a friend of Cluster, so it reads the live scheduler and drives
// progress tick by tick without any public test hook.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "runtime/endpoint.hpp"
#include "runtime/scheduler.hpp"

namespace simtmsg::runtime {

class ScanOracle {
 public:
  ScanOracle(int nodes, Scheduler::Probe probe) : nodes_(nodes), probe_(std::move(probe)) {}

  /// Oracle over a live cluster's fleet, probing its real queues and
  /// reliability channels.
  explicit ScanOracle(Cluster& c) : ScanOracle(c.nodes(), c.scheduler_probe()) {}

  [[nodiscard]] std::vector<int> active() const {
    std::vector<int> out;
    for (int n = 0; n < nodes_; ++n) {
      if (probe_.runnable(n)) out.push_back(n);
    }
    return out;
  }

  [[nodiscard]] double next_rto_deadline() const {
    double next = -1.0;
    for (int n = 0; n < nodes_; ++n) {
      const double d = probe_.rto_deadline(n);
      if (d >= 0.0 && (next < 0.0 || d < next)) next = d;
    }
    return next;
  }

  [[nodiscard]] std::vector<int> due(double now_us) const {
    std::vector<int> out;
    for (int n = 0; n < nodes_; ++n) {
      const double d = probe_.rto_deadline(n);
      if (d >= 0.0 && d <= now_us) out.push_back(n);
    }
    return out;
  }

  [[nodiscard]] bool rto_idle() const {
    for (int n = 0; n < nodes_; ++n) {
      if (probe_.rto_deadline(n) >= 0.0) return false;
    }
    return true;
  }

  /// Every query of `s` against the scan: the active set, the next
  /// deadline, idleness, and the due set at `now_us`, at the next deadline,
  /// and at +inf (the whole armed set).
  [[nodiscard]] ::testing::AssertionResult agrees(const Scheduler& s, double now_us) const {
    std::vector<int> got;
    s.collect_active(got);
    if (got != active()) return disagree("collect_active", got, active());
    if (s.next_rto_deadline() != next_rto_deadline()) {
      return ::testing::AssertionFailure()
             << "next_rto_deadline: scheduler " << s.next_rto_deadline() << ", scan "
             << next_rto_deadline();
    }
    if (s.rto_idle() != rto_idle()) {
      return ::testing::AssertionFailure()
             << "rto_idle: scheduler " << s.rto_idle() << ", scan " << rto_idle();
    }
    for (const double t :
         {now_us, next_rto_deadline(), std::numeric_limits<double>::infinity()}) {
      s.collect_due(t, got);
      if (got != due(t)) return disagree("collect_due(" + std::to_string(t) + ")", got, due(t));
    }
    return ::testing::AssertionSuccess();
  }

  /// The cluster's own scheduler against a scan of its whole fleet.
  [[nodiscard]] static ::testing::AssertionResult check(Cluster& c) {
    return ScanOracle(c).agrees(c.scheduler_, c.now_us());
  }

  /// Cluster::run_until_quiescent(), one tick at a time, checking the
  /// scheduler against the scan after every tick.  Drives exactly the
  /// progress()/quiesced() sequence the library loop does, so the cluster
  /// ends in the same state (snapshot bytes included).
  static void run_until_quiescent(Cluster& c) {
    const ScanOracle oracle(c);
    for (std::uint64_t tick = 1;; ++tick) {
      const std::size_t matched = c.progress();
      const bool done = matched == 0 && c.quiesced();
      ASSERT_TRUE(oracle.agrees(c.scheduler_, c.now_us())) << "after tick " << tick;
      if (done) return;
    }
  }

 private:
  static ::testing::AssertionResult disagree(const std::string& query,
                                             const std::vector<int>& got,
                                             const std::vector<int>& want) {
    std::ostringstream os;
    os << query << ": scheduler {";
    for (const int n : got) os << ' ' << n;
    os << " }, scan {";
    for (const int n : want) os << ' ' << n;
    os << " }";
    return ::testing::AssertionFailure() << os.str();
  }

  int nodes_;
  Scheduler::Probe probe_;
};

}  // namespace simtmsg::runtime
