// Cluster scheduler: which nodes does a progress tick have to touch?
//
// The paper's Figure 1(b) vision is accelerators autonomously sourcing and
// sinking traffic; what caps the simulated fleet size is not matching cost
// but the runtime loop itself.  Stepping every node's communication kernel
// on every tick and scanning every reliability channel for its next
// retransmit deadline costs O(nodes) per tick even when three nodes are
// talking.  The Scheduler maintains the answers incrementally instead — a
// runnable set (nodes whose incoming-message and posted-receive queues are
// both non-empty) fed by wake() events, and a retransmit-deadline wheel
// (one entry per node at that node's earliest RTO, generalizing the
// reliability channel's per-node multiset index) fed by rto_touched()
// events — so a tick costs O(active), not O(nodes).
//
// Every answer equals what a scan of the whole fleet through the Probe
// would return; the test-side scan oracle (tests/runtime/scan_oracle.hpp)
// checks that after every tick (docs/runtime.md).
#pragma once

#include <functional>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

namespace simtmsg::runtime {

/// What a node is doing from the scheduler's point of view — the
/// vocabulary of Cluster::wait() deadlock diagnostics.
enum class NodeActivity {
  kIdle,               ///< No pending messages, no posted receives.
  kStarved,            ///< Receives posted but no inbound messages.
  kRunnable,           ///< Messages and receives both pending (matching runs).
  kAwaitingRetransmit, ///< Unacked sends: a retransmit timer is armed.
};

[[nodiscard]] std::string_view to_string(NodeActivity activity) noexcept;

/// Scheduling decisions for one Cluster.  The cluster reports state changes
/// (wake / rto_touched / stepped); the scheduler answers the per-tick
/// queries (collect_active / collect_due / next_rto_deadline / rto_idle).
/// All node lists are ascending by node id — the deterministic order the
/// wire-sequence stamping of retransmits depends on.
class Scheduler {
 public:
  /// How the scheduler inspects a node without owning cluster state.
  struct Probe {
    /// Both the node's incoming-message and posted-receive queues are
    /// non-empty, i.e. its communication kernel has matching work.
    std::function<bool(int)> runnable;
    /// The node's earliest retransmit deadline, or a negative value when it
    /// has no unacked sends (ReliabilityChannel::next_deadline()).
    std::function<double(int)> rto_deadline;
  };

  Scheduler(int nodes, Probe probe);

  /// A queue push may have made `node` runnable (message delivered or
  /// receive posted).
  void wake(int node);

  /// `node`'s reliability channel changed (send tracked, ack processed, or
  /// timers expired): its earliest RTO deadline may differ now.
  void rto_touched(int node);

  /// The node stepped; `runnable` says whether it still has matching work
  /// (the ProgressEngine::step() StepResult contract).
  void stepped(int node, bool runnable);

  /// Nodes to step this tick, ascending.  Replaces `out`'s contents.
  void collect_active(std::vector<int>& out) const;

  /// Earliest retransmit deadline across the fleet, or negative when no
  /// node has unacked sends.
  [[nodiscard]] double next_rto_deadline() const;

  /// Nodes whose earliest RTO deadline is <= now_us, ascending.  Replaces
  /// `out`'s contents.
  void collect_due(double now_us, std::vector<int>& out) const;

  /// True when no node has unacked sends (reliability quiescence).
  [[nodiscard]] bool rto_idle() const { return wheel_.empty(); }

 private:
  Probe probe_;
  /// Nodes whose incoming and posted queues are both non-empty.
  std::set<int> runnable_;
  /// (deadline, node), one entry per node at its earliest RTO.  A multiset
  /// because two nodes may share a deadline (coalesced timers).
  std::multiset<std::pair<double, int>> wheel_;
  /// The deadline currently indexed for each node (-1 = none): the exact
  /// key to erase on re-arm.
  std::vector<double> armed_;
};

}  // namespace simtmsg::runtime
