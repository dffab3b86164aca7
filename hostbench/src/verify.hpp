// Correctness checks of one superstep: every result must satisfy its
// receive's envelope, carry the payload of a send addressed to that receive
// (its own send when the generator made the receive unique to one), and no
// send may be delivered twice or not at all.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "runtime/endpoint.hpp"
#include "workloads.hpp"

namespace hostbench {

class Verifier {
 public:
  /// Starts checking `plan`'s receives (early ones first, then late ones).
  /// The plan must outlive the checks.
  void begin(const Plan& plan);

  /// Receive `i`'s outcome: `waited` is what wait() returned and `read` what
  /// result() returned afterwards.  False when anything disagrees.
  [[nodiscard]] bool check(std::size_t i, const simtmsg::runtime::RecvResult& waited,
                           const std::optional<simtmsg::runtime::RecvResult>& read);

  /// Sends of the plan that no checked receive got.
  [[nodiscard]] std::uint64_t missing() const;

 private:
  const Plan* plan_ = nullptr;
  std::vector<std::uint8_t> seen_;
};

}  // namespace hostbench
