// GlobalAddressSpace: the paper's communication substrate (Section II-C):
// "NVLink and PCIe systems allow GPUs to address a peer's memory directly
// by spanning a virtual global address space (GAS) across the network.
// 'Send' operations write messages to queues in remote memory and 'Receive'
// operations query the local queue for new messages."
//
// Each node owns an incoming message queue in its (simulated) device
// memory; remote_enqueue models the one-sided write a send performs.
// In-flight packets are delivered in arrival-time order.  FIFO is enforced
// per (from, to, stream) with a monotone clamp on planned arrivals — the
// NVLink-class guarantee, sliced per ordering domain (docs/streams.md) so
// distinct streams of the same pair may overtake each other — unless the
// FaultModel's pair-order-violation mode is on.
// The wire applies the NetworkConfig's FaultModel at injection time: a
// packet may be dropped, duplicated, bit-flipped, or delay-spiked, each
// event tallied into the optional telemetry sink as runtime.fault.*.
#pragma once

#include <map>
#include <queue>
#include <tuple>
#include <vector>

#include "matching/queue.hpp"
#include "runtime/network.hpp"
#include "telemetry/telemetry.hpp"

namespace simtmsg::runtime {

class GlobalAddressSpace {
 public:
  /// `fault_sink` (may be null) receives the runtime.fault.* wire counters.
  GlobalAddressSpace(int nodes, NetworkConfig net_cfg,
                     telemetry::Registry* fault_sink = nullptr);

  [[nodiscard]] int nodes() const noexcept { return static_cast<int>(incoming_.size()); }

  /// One-sided remote write of a message header+payload into `to`'s queue.
  /// Returns the packet's arrival time.
  double remote_enqueue(int from, int to, const matching::Envelope& env,
                        std::uint64_t payload, std::size_t bytes, double now_us);

  /// Inject a fully-formed packet (reliability path: data, ack, or
  /// retransmission).  Stamps the wire sequence, applies the fault plan,
  /// and returns the planned arrival time — or a negative value when the
  /// wire dropped the packet.
  double inject(Packet p, double now_us);

  /// Append every packet with arrival <= `until_us` to `out` in arrival
  /// order (ties broken by injection order) and return how many.  The
  /// caller decides what reaches the incoming queues: the Cluster pushes
  /// raw packets straight in, or hands them to the reliability layer.
  std::size_t deliver_raw_until(double until_us, std::vector<Packet>& out);

  /// Earliest in-flight arrival, or a negative value when nothing is in
  /// flight.
  [[nodiscard]] double next_arrival() const noexcept;

  [[nodiscard]] bool idle() const noexcept { return in_flight_.empty(); }

  /// Node-local incoming message queue (what the communication kernel
  /// matches against).
  [[nodiscard]] matching::MessageQueue& incoming(int node) {
    return incoming_[static_cast<std::size_t>(node)];
  }
  [[nodiscard]] const matching::MessageQueue& incoming(int node) const {
    return incoming_[static_cast<std::size_t>(node)];
  }

  [[nodiscard]] std::uint64_t total_injected() const noexcept { return sequence_; }

 private:
  struct Later {
    bool operator()(const Packet& a, const Packet& b) const noexcept {
      if (a.arrival_us != b.arrival_us) return a.arrival_us > b.arrival_us;
      return a.sequence > b.sequence;
    }
  };

  void bump(std::string_view name);

  Network network_;
  std::priority_queue<Packet, std::vector<Packet>, Later> in_flight_;
  std::vector<matching::MessageQueue> incoming_;
  /// Latest planned arrival per (from, to, stream) — the FIFO clamp.  One
  /// clamp per ordering domain: a delay spike on one stream never drags a
  /// sibling stream's arrivals behind it.  With only the default stream the
  /// map holds exactly the pre-stream (from, to) entries.
  std::map<std::tuple<int, int, matching::StreamId>, double> last_arrival_;
  telemetry::Registry* fault_sink_ = nullptr;
  std::uint64_t sequence_ = 0;
};

}  // namespace simtmsg::runtime
