// GlobalAddressSpace: the paper's communication substrate (Section II-C):
// "NVLink and PCIe systems allow GPUs to address a peer's memory directly
// by spanning a virtual global address space (GAS) across the network.
// 'Send' operations write messages to queues in remote memory and 'Receive'
// operations query the local queue for new messages."
//
// Each node owns an incoming message queue in its (simulated) device
// memory; remote_enqueue models the one-sided write a send performs.
// In-flight packets are delivered in (arrival time, wire sequence) order.
// FIFO is enforced per (from, to, stream) with a monotone clamp on planned
// arrivals — the NVLink-class guarantee, sliced per ordering domain
// (docs/streams.md) so distinct streams of the same pair may overtake each
// other — unless the FaultModel's pair-order-violation mode is on.
//
// Delivery structure: in-flight packets live in one recycled slot pool.
// Each ordering domain is a lane — an intrusive FIFO of pool slots plus its
// clamp — found through a flat open-addressed index keyed by (from, to,
// stream).  The clamp makes every lane monotone in (arrival, sequence), so
// only lane heads sit in the min-heap of 24-byte (arrival, sequence, slot)
// keys, and popping a head pushes its successor: a k-way merge that
// releases exactly the global order one heap over every packet would.  The
// heap holds one key per active domain rather than one per packet.  Under
// allow_pair_reorder lanes are not monotone, so every packet enters the
// same heap on its own, with no successor link.
//
// The wire applies the NetworkConfig's FaultModel at injection time: a
// packet may be dropped, duplicated, bit-flipped, or delay-spiked, each
// event tallied into the optional telemetry sink as runtime.fault.*.  A
// duplicate is queued right behind its original in the same lane.
#pragma once

#include <cstdint>
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
  [[nodiscard]] double next_arrival() const noexcept {
    return heap_.empty() ? -1.0 : heap_.front().arrival_us;
  }

  [[nodiscard]] bool idle() const noexcept { return heap_.empty(); }

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
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  /// One pool entry: an in-flight packet, its lane, and the next slot of
  /// that lane (or of the free list once the slot is released).
  struct Slot {
    Packet packet;
    std::uint32_t lane = kNone;
    std::uint32_t next = kNone;
  };

  /// One ordering domain: its FIFO tail (the head is the slot whose key
  /// sits in the heap) and its clamp, the latest planned arrival.  One
  /// clamp per domain, so a delay spike on one stream never drags a sibling
  /// stream's arrivals behind it.  Lanes outlive their packets — the clamp
  /// must — and are never removed.
  struct Lane {
    int from = 0;
    int to = 0;
    matching::StreamId stream = matching::kDefaultStream;
    std::uint32_t tail = kNone;
    double last = 0.0;
  };

  /// Heap entry: the packet's (arrival, sequence) order and its pool slot.
  struct Key {
    double arrival_us;
    std::uint64_t sequence;
    std::uint32_t slot;

    /// Delivery order: arrival time, ties broken by injection order.
    friend bool operator<(const Key& a, const Key& b) noexcept {
      if (a.arrival_us != b.arrival_us) return a.arrival_us < b.arrival_us;
      return a.sequence < b.sequence;
    }
  };

  void bump(std::string_view name);
  /// Index of the (from, to, stream) lane, created on first use.
  std::uint32_t lane_of(int from, int to, matching::StreamId stream);
  /// Move `p` into a free pool slot (growing the pool when none is free)
  /// and queue it behind its lane's tail, or in the heap when the lane is
  /// empty or `lane` is kNone (no order to keep).
  void enqueue(Packet&& p, std::uint32_t lane);
  void heap_push(Key k);
  /// Replace the minimum with `k` and restore the heap (one sift-down).
  void heap_replace_top(Key k);
  void heap_pop();

  Network network_;
  std::vector<matching::MessageQueue> incoming_;
  std::vector<Slot> pool_;
  std::uint32_t free_ = kNone;  ///< Head of the free-slot list.
  std::vector<Lane> lanes_;
  /// Open-addressed (linear probing) index into lanes_; kNone marks an
  /// empty bucket.  Power-of-two size, at most half full.
  std::vector<std::uint32_t> lane_index_;
  std::vector<Key> heap_;  ///< Binary min-heap on (arrival_us, sequence).
  telemetry::Registry* fault_sink_ = nullptr;
  std::uint64_t sequence_ = 0;
};

}  // namespace simtmsg::runtime
