#include "runtime/gas.hpp"

#include <algorithm>
#include <stdexcept>

namespace simtmsg::runtime {

GlobalAddressSpace::GlobalAddressSpace(int nodes, NetworkConfig net_cfg,
                                       telemetry::Registry* fault_sink)
    : network_(std::move(net_cfg)),
      incoming_(static_cast<std::size_t>(nodes)),
      fault_sink_(fault_sink) {
  if (nodes < 1) throw std::invalid_argument("GAS needs at least one node");
}

void GlobalAddressSpace::bump(std::string_view name) {
  if constexpr (telemetry::kEnabled) {
    if (fault_sink_ != nullptr) fault_sink_->counter(name).add(1);
  }
}

double GlobalAddressSpace::remote_enqueue(int from, int to,
                                          const matching::Envelope& env,
                                          std::uint64_t payload, std::size_t bytes,
                                          double now_us) {
  Packet p;
  p.from = from;
  p.to = to;
  p.env = env;
  p.payload = payload;
  p.bytes = bytes;
  return inject(std::move(p), now_us);
}

double GlobalAddressSpace::inject(Packet p, double now_us) {
  if (p.to < 0 || p.to >= nodes()) throw std::out_of_range("destination node out of range");
  p.sequence = sequence_++;
  const WirePlan plan = network_.plan(p, now_us);

  if (plan.fault.extra_delay_us > 0.0) bump("runtime.fault.delay_spikes");
  if (plan.fault.drop) {
    bump("runtime.fault.drops");
    return -1.0;
  }

  p.arrival_us = plan.arrival_us;
  if (plan.fault.corrupt) {
    bump("runtime.fault.corruptions");
    p.payload ^= std::uint64_t{1} << plan.corrupt_bit;
  }

  const bool keep_fifo = !network_.config().faults.allow_pair_reorder;
  double& last = last_arrival_[{p.from, p.to, p.env.stream}];
  if (keep_fifo) p.arrival_us = std::max(p.arrival_us, last);
  last = std::max(last, p.arrival_us);

  const double arrival = p.arrival_us;
  if (plan.fault.duplicate) {
    bump("runtime.fault.duplicates");
    Packet dup = p;
    dup.sequence = sequence_++;
    dup.arrival_us = std::max(plan.dup_arrival_us, arrival);
    last = std::max(last, dup.arrival_us);
    in_flight_.push(std::move(dup));
  }
  in_flight_.push(std::move(p));
  return arrival;
}

std::size_t GlobalAddressSpace::deliver_raw_until(double until_us,
                                                  std::vector<Packet>& out) {
  std::size_t delivered = 0;
  while (!in_flight_.empty() && in_flight_.top().arrival_us <= until_us) {
    out.push_back(in_flight_.top());
    in_flight_.pop();
    ++delivered;
  }
  return delivered;
}

double GlobalAddressSpace::next_arrival() const noexcept {
  return in_flight_.empty() ? -1.0 : in_flight_.top().arrival_us;
}

}  // namespace simtmsg::runtime
