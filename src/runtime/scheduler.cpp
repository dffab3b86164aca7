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
    : probe_(std::move(probe)), armed_(static_cast<std::size_t>(nodes), -1.0) {}

void Scheduler::wake(int node) {
  if (probe_.runnable(node)) runnable_.insert(node);
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
    runnable_.insert(node);
  } else {
    runnable_.erase(node);
  }
}

void Scheduler::collect_active(std::vector<int>& out) const {
  out.assign(runnable_.begin(), runnable_.end());  // std::set: ascending.
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
