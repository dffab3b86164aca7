#include "runtime/scheduler.hpp"

#include <algorithm>

namespace simtmsg::runtime {

std::string_view to_string(NodeActivity activity) noexcept {
  switch (activity) {
    case NodeActivity::kIdle: return "idle";
    case NodeActivity::kStarved: return "starved";
    case NodeActivity::kRunnable: return "runnable";
    case NodeActivity::kAwaitingRetransmit: return "awaiting retransmit";
  }
  return "?";
}

Scheduler::Scheduler(int nodes, Probe probe)
    : probe_(std::move(probe)),
      position_(static_cast<std::size_t>(nodes), -1),
      armed_(static_cast<std::size_t>(nodes), -1.0) {
  runnable_.reserve(static_cast<std::size_t>(nodes));
}

void Scheduler::insert_runnable(int node) {
  int& pos = position_[static_cast<std::size_t>(node)];
  if (pos >= 0) return;
  pos = static_cast<int>(runnable_.size());
  runnable_.push_back(node);
}

void Scheduler::erase_runnable(int node) {
  int& pos = position_[static_cast<std::size_t>(node)];
  if (pos < 0) return;
  // Swap-remove: the last member takes the vacated position.
  const int moved = runnable_.back();
  runnable_[static_cast<std::size_t>(pos)] = moved;
  position_[static_cast<std::size_t>(moved)] = pos;
  runnable_.pop_back();
  pos = -1;
}

void Scheduler::wake(int node) {
  if (probe_.runnable(node)) insert_runnable(node);
}

void Scheduler::rto_touched(int node) {
  const double fresh = probe_.rto_deadline(node);
  double& armed = armed_[static_cast<std::size_t>(node)];
  if (fresh == armed) return;  // Both exact copies of the channel's value.
  if (armed >= 0.0) wheel_.erase(wheel_.find({armed, node}));
  armed = fresh >= 0.0 ? fresh : -1.0;
  if (armed >= 0.0) wheel_.insert({armed, node});
}

void Scheduler::stepped(int node, bool runnable) {
  if (runnable) {
    insert_runnable(node);
  } else {
    erase_runnable(node);
  }
}

void Scheduler::collect_active(std::vector<int>& out) const {
  out.assign(runnable_.begin(), runnable_.end());
  std::sort(out.begin(), out.end());
}

double Scheduler::next_rto_deadline() const {
  return wheel_.empty() ? -1.0 : wheel_.begin()->first;
}

void Scheduler::collect_due(double now_us, std::vector<int>& out) const {
  out.clear();
  for (auto it = wheel_.begin(); it != wheel_.end() && it->first <= now_us; ++it) {
    out.push_back(it->second);
  }
  // One wheel entry per node, but entries are deadline-ordered; the
  // cluster expires nodes in ascending node order (the wire-sequence
  // stamping of retransmits depends on it).
  std::sort(out.begin(), out.end());
}

}  // namespace simtmsg::runtime
