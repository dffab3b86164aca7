#include "verify.hpp"

#include <algorithm>

namespace hostbench {

using simtmsg::matching::kAnySource;
using simtmsg::matching::kAnyTag;
using simtmsg::runtime::RecvResult;

void Verifier::begin(const Plan& plan) {
  plan_ = &plan;
  seen_.assign(plan.sends.size(), 0);
}

bool Verifier::check(std::size_t i, const RecvResult& r,
                     const std::optional<RecvResult>& read) {
  const Plan& p = *plan_;
  const bool is_early = i < p.early.size();
  const RecvOp& op = is_early ? p.early[i] : p.late[i - p.early.size()];
  bool ok = read.has_value() && read->src == r.src && read->tag == r.tag &&
            read->payload == r.payload && read->stream == r.stream;
  ok = ok && r.stream == op.stream && (op.src == kAnySource || r.src == op.src) &&
       (op.tag == kAnyTag || r.tag == op.tag);
  const std::uint32_t idx = payload_index(r.payload);
  ok = ok && payload_superstep(r.payload) == p.superstep && idx < p.sends.size();
  if (!ok) return false;
  const SendOp& s = p.sends[idx];
  ok = s.to == op.node && s.from == r.src && s.tag == r.tag && s.stream == r.stream &&
       (op.msg < 0 || idx == static_cast<std::uint32_t>(op.msg)) && seen_[idx] == 0;
  seen_[idx] = 1;
  return ok;
}

std::uint64_t Verifier::missing() const {
  return static_cast<std::uint64_t>(std::count(seen_.begin(), seen_.end(), 0));
}

}  // namespace hostbench
