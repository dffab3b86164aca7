// Layer probes of the traced run.  Each probe feeds one layer's public class
// the traffic a workload's supersteps produce and times the benchmark's own
// calls into it: GlobalAddressSpace (inject / deliver), ReliabilityChannel
// (make_data / on_packet / expire over the workload's fault model),
// MatchQueue::push_n, ProgressEngine::step and MatchEngine::match_queues on
// identical per-node queues.  Nothing inside the library is instrumented.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "ledger.hpp"
#include "runtime/endpoint.hpp"
#include "workloads.hpp"

namespace hostbench {

struct ProbeResults {
  // runtime.gas
  double gas_inject_ns_per_pkt = 0.0;
  double gas_deliver_ns_per_pkt = 0.0;
  double gas_in_flight_peak = 0.0;
  double gas_pkts_per_msg = 0.0;  ///< Wire packets delivered per message sent.
  // runtime.reliability
  double rel_make_data_ns = 0.0;
  double rel_on_packet_ns = 0.0;
  double rel_expire_ns = 0.0;
  double rel_on_packet_ns_per_msg = 0.0;  ///< All on_packet time ÷ messages.
  double rel_expire_ns_per_msg = 0.0;     ///< All expire time ÷ messages.
  double rel_retransmits_per_msg = 0.0;
  double rel_dups_per_msg = 0.0;
  double rel_goodput_ratio = 0.0;
  // runtime.progress_engine and matching
  double queue_push_n_ns_per_msg = 0.0;
  double pe_step_ns = 0.0;
  double pe_step_overhead_ns = 0.0;
  double pe_step_ns_per_msg = 0.0;  ///< All step time ÷ messages.
  double match_ns_per_match = 0.0;
  double match_modelled_cycles_per_match = 0.0;
  double match_compaction_cycle_share = 0.0;
};

/// Runs every probe over `plans` (the first plan is a warm-up whose samples
/// are dropped; each figure is the median over the rest).  When `log` is
/// set, each probe pass is recorded as a span whose parent is the span
/// `parents` maps the plan's superstep to (0 when absent).
[[nodiscard]] ProbeResults run_probes(const simtmsg::runtime::ClusterConfig& cfg,
                                      const std::vector<Plan>& plans, SpanLog* log,
                                      const std::map<std::uint64_t, std::uint64_t>& parents);

}  // namespace hostbench
