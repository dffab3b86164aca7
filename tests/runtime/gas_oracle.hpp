// The GAS oracle: GlobalAddressSpace's former delivery structure, kept only
// as a test-side reference.  Every in-flight Packet sits in one
// std::priority_queue ordered by (arrival_us, sequence), and the FIFO clamp
// is a std::map keyed by the (from, to, stream) tuple.  The library keeps
// per-domain FIFO lanes and merges only their heads; it is correct exactly
// when, for the same injections and delivery horizons, both return the same
// arrivals and release the same packets, field for field, in the same
// order (tests/runtime/gas_oracle_test.cpp).
//
// Only delivery is reproduced here: the oracle has no incoming queues.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <queue>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "runtime/network.hpp"
#include "telemetry/telemetry.hpp"

namespace simtmsg::runtime::oracle {

class GasOracle {
 public:
  GasOracle(int nodes, NetworkConfig net_cfg, telemetry::Registry* fault_sink = nullptr)
      : network_(std::move(net_cfg)), nodes_(nodes), fault_sink_(fault_sink) {
    if (nodes < 1) throw std::invalid_argument("GAS needs at least one node");
  }

  [[nodiscard]] int nodes() const noexcept { return nodes_; }

  double remote_enqueue(int from, int to, const matching::Envelope& env,
                        std::uint64_t payload, std::size_t bytes, double now_us) {
    Packet p;
    p.from = from;
    p.to = to;
    p.env = env;
    p.payload = payload;
    p.bytes = bytes;
    return inject(std::move(p), now_us);
  }

  double inject(Packet p, double now_us) {
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

  std::size_t deliver_raw_until(double until_us, std::vector<Packet>& out) {
    std::size_t delivered = 0;
    while (!in_flight_.empty() && in_flight_.top().arrival_us <= until_us) {
      out.push_back(in_flight_.top());
      in_flight_.pop();
      ++delivered;
    }
    return delivered;
  }

  [[nodiscard]] double next_arrival() const noexcept {
    return in_flight_.empty() ? -1.0 : in_flight_.top().arrival_us;
  }

  [[nodiscard]] bool idle() const noexcept { return in_flight_.empty(); }

  [[nodiscard]] std::uint64_t total_injected() const noexcept { return sequence_; }

 private:
  struct Later {
    bool operator()(const Packet& a, const Packet& b) const noexcept {
      if (a.arrival_us != b.arrival_us) return a.arrival_us > b.arrival_us;
      return a.sequence > b.sequence;
    }
  };

  void bump(std::string_view name) {
    if constexpr (telemetry::kEnabled) {
      if (fault_sink_ != nullptr) fault_sink_->counter(name).add(1);
    }
  }

  Network network_;
  std::priority_queue<Packet, std::vector<Packet>, Later> in_flight_;
  int nodes_ = 0;
  /// Latest planned arrival per (from, to, stream) — the FIFO clamp.
  std::map<std::tuple<int, int, matching::StreamId>, double> last_arrival_;
  telemetry::Registry* fault_sink_ = nullptr;
  std::uint64_t sequence_ = 0;
};

}  // namespace simtmsg::runtime::oracle
