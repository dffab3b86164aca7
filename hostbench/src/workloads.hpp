// The benchmark's workloads: a Cluster configuration plus a generator that
// turns (seed, superstep) into one closed-loop BSP superstep — the receives
// to post before the sends, the sends, and the receives to post after the
// first waits.  The library only ever sees the generated Cluster calls.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/endpoint.hpp"

namespace hostbench {

struct SendOp {
  int from = 0;
  int to = 0;
  simtmsg::matching::Tag tag = 0;
  simtmsg::matching::StreamId stream = 0;
  std::uint64_t payload = 0;
};

/// A receive to post.  `msg` is the index of the send the generator made it
/// the only match for (exact or ANY_SOURCE receive on a tag unique to its
/// node), or -1 for an ANY_TAG receive, which may take any of its source's
/// messages that no earlier-posted receive names.
struct RecvOp {
  int node = 0;
  simtmsg::matching::Rank src = 0;
  simtmsg::matching::Tag tag = 0;
  simtmsg::matching::StreamId stream = 0;
  std::int32_t msg = -1;
};

struct Plan {
  std::uint64_t superstep = 0;
  std::vector<RecvOp> early;  ///< Posted before the sends (posted-receive side).
  std::vector<SendOp> sends;
  std::vector<RecvOp> late;   ///< Posted after the early waits (unexpected side).
};

/// Payload of send `index` in `superstep`: unique within a run, and decodable
/// so a result can be traced back to the send it carries.
[[nodiscard]] constexpr std::uint64_t make_payload(std::uint64_t superstep,
                                                   std::uint32_t index) noexcept {
  return (superstep << 32) | index;
}
[[nodiscard]] constexpr std::uint64_t payload_superstep(std::uint64_t p) noexcept {
  return p >> 32;
}
[[nodiscard]] constexpr std::uint32_t payload_index(std::uint64_t p) noexcept {
  return static_cast<std::uint32_t>(p);
}

struct Workload {
  std::string name;
  /// Timed supersteps after which the deterministic metrics (virtual time,
  /// modelled rate) and the peak RSS are read; every run does at least this
  /// many so those figures describe the same work on every run.
  int checkpoint_supersteps = 100;
  /// Safety cap on timed supersteps (ring_bulk retains every result, so its
  /// memory grows with run length).
  int max_supersteps = 100000;
  /// Cluster constructions (each with one warm-up superstep) per run;
  /// setup_s is their median.
  int setup_reps = 5;
  /// Builds the Cluster configuration for `seed`.
  simtmsg::runtime::ClusterConfig (*config)(std::uint64_t seed) = nullptr;
  /// Appends (seed, plan.superstep)'s ops to `plan`, which the caller has
  /// cleared and stamped with the superstep.
  void (*generate)(std::uint64_t seed, std::uint64_t superstep, Plan& plan) = nullptr;
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// Null when no workload has that name.
[[nodiscard]] const Workload* find_workload(std::string_view name);

}  // namespace hostbench
