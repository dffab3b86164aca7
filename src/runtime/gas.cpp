#include "runtime/gas.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace simtmsg::runtime {
namespace {

/// splitmix64's finalizer over the packed (from, to, stream) domain.
[[nodiscard]] std::uint64_t lane_hash(int from, int to, matching::StreamId stream) noexcept {
  std::uint64_t z = (std::uint64_t{static_cast<std::uint32_t>(from)} << 32) |
                    static_cast<std::uint32_t>(to);
  z ^= std::uint64_t{static_cast<std::uint32_t>(stream)} * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

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

  // The FIFO clamp: never arrive before an earlier packet of the domain.
  std::uint32_t lane = kNone;
  if (!network_.config().faults.allow_pair_reorder) {
    lane = lane_of(p.from, p.to, p.env.stream);
    double& last = lanes_[lane].last;
    p.arrival_us = std::max(p.arrival_us, last);
    last = p.arrival_us;
  }

  const double arrival = p.arrival_us;
  if (!plan.fault.duplicate) {
    enqueue(std::move(p), lane);
    return arrival;
  }
  bump("runtime.fault.duplicates");
  Packet dup = p;
  dup.sequence = sequence_++;
  dup.arrival_us = std::max(plan.dup_arrival_us, arrival);
  if (lane != kNone) lanes_[lane].last = dup.arrival_us;
  enqueue(std::move(p), lane);
  enqueue(std::move(dup), lane);
  return arrival;
}

std::uint32_t GlobalAddressSpace::lane_of(int from, int to, matching::StreamId stream) {
  if (2 * (lanes_.size() + 1) > lane_index_.size()) {
    // Grow (or create) the index; lane ids stay put, only buckets move.
    lane_index_.assign(std::max<std::size_t>(64, 2 * lane_index_.size()), kNone);
    const std::size_t mask = lane_index_.size() - 1;
    for (std::uint32_t i = 0; i < lanes_.size(); ++i) {
      const Lane& l = lanes_[i];
      std::size_t b = lane_hash(l.from, l.to, l.stream) & mask;
      while (lane_index_[b] != kNone) b = (b + 1) & mask;
      lane_index_[b] = i;
    }
  }
  const std::size_t mask = lane_index_.size() - 1;
  for (std::size_t b = lane_hash(from, to, stream) & mask;; b = (b + 1) & mask) {
    const std::uint32_t i = lane_index_[b];
    if (i == kNone) {
      lane_index_[b] = static_cast<std::uint32_t>(lanes_.size());
      lanes_.push_back(Lane{.from = from, .to = to, .stream = stream});
      return lane_index_[b];
    }
    const Lane& l = lanes_[i];
    if (l.from == from && l.to == to && l.stream == stream) return i;
  }
}

void GlobalAddressSpace::enqueue(Packet&& p, std::uint32_t lane) {
  std::uint32_t s = free_;
  if (s != kNone) {
    free_ = pool_[s].next;
    pool_[s] = Slot{.packet = std::move(p), .lane = lane};
  } else {
    s = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(Slot{.packet = std::move(p), .lane = lane});
  }
  if (lane != kNone) {
    const std::uint32_t prev = std::exchange(lanes_[lane].tail, s);
    if (prev != kNone) {
      pool_[prev].next = s;  // The lane's head is already in the heap.
      return;
    }
  }
  const Packet& q = pool_[s].packet;
  heap_push({q.arrival_us, q.sequence, s});
}

std::size_t GlobalAddressSpace::deliver_raw_until(double until_us,
                                                  std::vector<Packet>& out) {
  std::size_t delivered = 0;
  while (!heap_.empty() && heap_.front().arrival_us <= until_us) {
    const std::uint32_t s = heap_.front().slot;
    Slot& slot = pool_[s];
    out.push_back(slot.packet);
    if (slot.next != kNone) {
      const Packet& succ = pool_[slot.next].packet;
      heap_replace_top({succ.arrival_us, succ.sequence, slot.next});
    } else {
      if (slot.lane != kNone) lanes_[slot.lane].tail = kNone;
      heap_pop();
    }
    slot.next = free_;
    free_ = s;
    ++delivered;
  }
  return delivered;
}

void GlobalAddressSpace::heap_push(Key k) {
  std::size_t i = heap_.size();
  heap_.push_back(k);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!(k < heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = k;
}

void GlobalAddressSpace::heap_replace_top(Key k) {
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1] < heap_[child]) ++child;
    if (!(heap_[child] < k)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = k;
}

void GlobalAddressSpace::heap_pop() {
  const Key last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) heap_replace_top(last);
}

}  // namespace simtmsg::runtime
