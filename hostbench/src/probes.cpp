#include "probes.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "matching/engine.hpp"
#include "runtime/gas.hpp"
#include "runtime/progress_engine.hpp"
#include "runtime/reliability.hpp"
#include "simt/timing_model.hpp"
#include "telemetry/report.hpp"

namespace hostbench {

namespace {

using namespace simtmsg;
using runtime::ClusterConfig;
using runtime::Packet;

constexpr double kForever = std::numeric_limits<double>::max();

matching::Envelope envelope(const SendOp& s) {
  return {.src = s.from, .tag = s.tag, .comm = 0, .stream = s.stream};
}

matching::Envelope envelope(const RecvOp& r) {
  return {.src = r.src, .tag = r.tag, .comm = 0, .stream = r.stream};
}

/// Per-plan samples of one figure; the median drops the warm-up plan.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  [[nodiscard]] double median() const {
    if (v_.size() <= 1) return v_.empty() ? 0.0 : v_[0];
    return hostbench::median({v_.begin() + 1, v_.end()});
  }

 private:
  std::vector<double> v_;
};

[[nodiscard]] double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Records probe passes as spans under their superstep's span.
class ProbeSpans {
 public:
  ProbeSpans(SpanLog* log, const std::map<std::uint64_t, std::uint64_t>& parents)
      : log_(log), parents_(parents) {}

  void record(const char* name, std::uint64_t superstep, std::int64_t start,
              std::int64_t end, std::uint64_t calls, std::int64_t call_ns) {
    if (log_ == nullptr) return;
    const auto it = parents_.find(superstep);
    log_->add({.name = name,
               .cat = "probe",
               .parent = it != parents_.end() ? it->second : 0,
               .superstep = superstep,
               .start_ns = start,
               .dur_ns = end - start,
               .calls = calls,
               .call_ns = call_ns});
  }

 private:
  SpanLog* log_;
  const std::map<std::uint64_t, std::uint64_t>& parents_;
};

/// The fault model the reliability probe runs over: the workload's own when
/// its cluster runs the protocol, else lossy_streams' reference fabric, so
/// every workload reports what the channel costs on its traffic.
ClusterConfig reliability_probe_config(const ClusterConfig& cfg) {
  if (cfg.reliability.enabled) return cfg;
  ClusterConfig probe = cfg;
  probe.network.jitter_us = 0.5;
  probe.network.faults.drop_prob = 0.02;
  probe.network.faults.dup_prob = 0.01;
  probe.network.faults.corrupt_prob = 0.005;
  probe.reliability.enabled = true;
  probe.reliability.timeout_us = 10.0;
  probe.reliability.max_attempts = 32;
  return probe;
}

struct GasSample {
  double inject_ns_per_pkt = 0.0;
  double deliver_ns_per_pkt = 0.0;
  double delivered = 0.0;
};

GasSample probe_gas(const ClusterConfig& cfg, const Plan& plan, ProbeSpans& spans) {
  runtime::GlobalAddressSpace gas(cfg.nodes, cfg.network);
  // With reliability on, the cluster injects sequenced data packets; build
  // them up front so only the inject calls are timed.
  std::vector<Packet> pkts;
  if (cfg.reliability.enabled) {
    pkts.reserve(plan.sends.size());
    for (std::size_t i = 0; i < plan.sends.size(); ++i) {
      const SendOp& s = plan.sends[i];
      Packet p{.from = s.from, .to = s.to, .env = envelope(s), .payload = s.payload};
      p.pair_seq = i;
      p.checksum = runtime::packet_checksum(p.env, p.payload, p.pair_seq, p.kind);
      pkts.push_back(p);
    }
  }
  const std::int64_t t0 = now_ns();
  if (cfg.reliability.enabled) {
    for (const Packet& p : pkts) (void)gas.inject(p, 0.0);
  } else {
    for (const SendOp& s : plan.sends) {
      (void)gas.remote_enqueue(s.from, s.to, envelope(s), s.payload, 8, 0.0);
    }
  }
  const std::int64_t t1 = now_ns();
  std::vector<Packet> raw;
  raw.reserve(plan.sends.size() * 2);
  const std::size_t delivered = gas.deliver_raw_until(kForever, raw);
  const std::int64_t t2 = now_ns();
  spans.record("probe.gas.inject", plan.superstep, t0, t1, plan.sends.size(), t1 - t0);
  spans.record("probe.gas.deliver", plan.superstep, t1, t2, 1, t2 - t1);
  const auto n = static_cast<double>(plan.sends.size());
  return {.inject_ns_per_pkt = ratio(static_cast<double>(t1 - t0), n),
          .deliver_ns_per_pkt =
              ratio(static_cast<double>(t2 - t1), static_cast<double>(delivered)),
          .delivered = static_cast<double>(delivered)};
}

struct ReliabilitySample {
  double make_data_ns = 0.0;
  double on_packet_ns = 0.0;
  double expire_ns = 0.0;
  double on_packet_ns_per_msg = 0.0;
  double expire_ns_per_msg = 0.0;
  double retransmits_per_msg = 0.0;
  double dups_per_msg = 0.0;
  double goodput = 0.0;
};

/// Runs the ack/retransmit protocol for one superstep's sends to completion
/// over a faulted GlobalAddressSpace, the way Cluster::progress drives it.
ReliabilitySample probe_reliability(const ClusterConfig& cluster_cfg, const Plan& plan,
                                    ProbeSpans& spans) {
  const ClusterConfig cfg = reliability_probe_config(cluster_cfg);
  telemetry::Registry sink;
  runtime::GlobalAddressSpace gas(cfg.nodes, cfg.network);
  std::vector<runtime::ReliabilityChannel> channels;
  channels.reserve(static_cast<std::size_t>(cfg.nodes));
  for (int n = 0; n < cfg.nodes; ++n) {
    channels.emplace_back(n, cfg.reliability, cfg.semantics.ordering, &sink);
  }
  double now = 0.0;
  std::vector<Packet> data(plan.sends.size());
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < plan.sends.size(); ++i) {
    const SendOp& s = plan.sends[i];
    data[i] = channels[static_cast<std::size_t>(s.from)].make_data(s.to, envelope(s),
                                                                   s.payload, 8, now);
  }
  const std::int64_t t1 = now_ns();
  spans.record("probe.reliability.make_data", plan.superstep, t0, t1, plan.sends.size(),
               t1 - t0);
  for (Packet& p : data) (void)gas.inject(std::move(p), now);

  std::vector<Packet> raw, replies, resend;
  std::vector<matching::Message> accepted;
  std::vector<runtime::DeliveryFailure> failed;
  std::int64_t on_packet_ns = 0, expire_ns = 0;
  std::uint64_t on_packet_calls = 0, expire_calls = 0, delivered = 0, retransmits = 0;
  const std::int64_t loop_start = now_ns();
  for (std::uint64_t tick = 0;; ++tick) {
    if (tick > 50'000'000) throw std::runtime_error("reliability probe did not settle");
    double next = gas.next_arrival();
    for (const auto& c : channels) {
      const double d = c.next_deadline();
      if (d >= 0.0 && (next < 0.0 || d < next)) next = d;
    }
    if (next < 0.0) break;
    now = std::max(now, next);
    raw.clear();
    (void)gas.deliver_raw_until(now, raw);
    accepted.clear();
    replies.clear();
    const std::int64_t a = now_ns();
    for (const Packet& p : raw) {
      channels[static_cast<std::size_t>(p.to)].on_packet(p, now, accepted, replies);
    }
    on_packet_ns += now_ns() - a;
    on_packet_calls += raw.size();
    delivered += accepted.size();
    for (Packet& r : replies) (void)gas.inject(std::move(r), now);
    resend.clear();
    std::int64_t expire_tick_ns = 0;
    for (auto& c : channels) {
      const double d = c.next_deadline();
      if (d < 0.0 || d > now) continue;
      const std::int64_t b = now_ns();
      c.expire(now, resend, failed);
      expire_tick_ns += now_ns() - b;
      ++expire_calls;
    }
    expire_ns += expire_tick_ns;
    retransmits += resend.size();
    for (Packet& r : resend) (void)gas.inject(std::move(r), now);
  }
  const std::int64_t loop_end = now_ns();
  spans.record("probe.reliability.on_packet", plan.superstep, loop_start, loop_end,
               on_packet_calls, on_packet_ns);
  spans.record("probe.reliability.expire", plan.superstep, loop_start, loop_end,
               expire_calls, expire_ns);

  telemetry::TelemetryReport report;
  report.absorb(sink);
  const auto counter = [&report](const char* name) {
    const auto it = report.counters.find(name);
    return it != report.counters.end() ? static_cast<double>(it->second) : 0.0;
  };
  const auto msgs = static_cast<double>(plan.sends.size());
  return {
      .make_data_ns = ratio(static_cast<double>(t1 - t0), msgs),
      .on_packet_ns =
          ratio(static_cast<double>(on_packet_ns), static_cast<double>(on_packet_calls)),
      .expire_ns = ratio(static_cast<double>(expire_ns), static_cast<double>(expire_calls)),
      .on_packet_ns_per_msg = ratio(static_cast<double>(on_packet_ns), msgs),
      .expire_ns_per_msg = ratio(static_cast<double>(expire_ns), msgs),
      .retransmits_per_msg = ratio(static_cast<double>(retransmits), msgs),
      .dups_per_msg = ratio(counter("runtime.reliability.duplicates_suppressed"), msgs),
      .goodput = ratio(static_cast<double>(delivered), msgs + static_cast<double>(retransmits)),
  };
}

struct EngineSample {
  double push_n_ns_per_msg = 0.0;
  double step_ns = 0.0;
  double step_overhead_ns = 0.0;
  double step_ns_per_msg = 0.0;
  double ns_per_match = 0.0;
  double cycles_per_match = 0.0;
  double compaction_share = 0.0;
};

/// One node's queue inputs for a superstep, in arrival / posting order.
struct NodeInputs {
  std::vector<matching::Message> msgs;
  std::vector<matching::RecvRequest> early;
  std::vector<matching::RecvRequest> late;
};

std::vector<NodeInputs> node_inputs(int nodes, const Plan& plan) {
  std::vector<NodeInputs> in(static_cast<std::size_t>(nodes));
  for (const SendOp& s : plan.sends) {
    in[static_cast<std::size_t>(s.to)].msgs.push_back(
        {.env = envelope(s), .seq = 0, .payload = s.payload});
  }
  std::uint64_t handle = 1;
  for (const RecvOp& r : plan.early) {
    in[static_cast<std::size_t>(r.node)].early.push_back(
        {.env = envelope(r), .seq = 0, .user_data = handle++});
  }
  for (const RecvOp& r : plan.late) {
    in[static_cast<std::size_t>(r.node)].late.push_back(
        {.env = envelope(r), .seq = 0, .user_data = handle++});
  }
  return in;
}

/// MatchQueue::push_n, then ProgressEngine::step and MatchEngine::match_queues
/// on identical copies of every node's queues.
EngineSample probe_engine(const ClusterConfig& cfg, const Plan& plan,
                          runtime::ProgressEngine& pe, const matching::MatchEngine& me,
                          ProbeSpans& spans) {
  const std::vector<NodeInputs> in = node_inputs(cfg.nodes, plan);
  const simt::TimingModel model(simt::device(cfg.device));

  std::vector<matching::MessageQueue> queues(in.size());
  const std::int64_t p0 = now_ns();
  for (std::size_t n = 0; n < in.size(); ++n) queues[n].push_n(in[n].msgs);
  const std::int64_t p1 = now_ns();
  spans.record("probe.queue.push_n", plan.superstep, p0, p1, in.size(), p1 - p0);

  // Every node's queues twice: one copy for ProgressEngine::step, one for
  // MatchEngine::match_queues.  Each engine then runs over all nodes in
  // turn, as a cluster tick steps them, so each keeps its workspace warm.
  struct NodeQueues {
    matching::MessageQueue msgs;
    matching::RecvQueue reqs;
  };
  const auto fill = [&in] {
    std::vector<NodeQueues> q(in.size());
    for (std::size_t n = 0; n < in.size(); ++n) {
      q[n].msgs.push_n(in[n].msgs);
      q[n].reqs.push_n(in[n].early);
    }
    return q;
  };
  std::vector<NodeQueues> for_step = fill(), for_match = fill();
  std::vector<runtime::Completion> completions;
  matching::SimtMatchStats stats;
  std::int64_t step_ns = 0, match_ns = 0;
  std::uint64_t steps = 0, matches = 0;
  double cycles = 0.0, compact_cycles = 0.0;
  const std::int64_t s0 = now_ns();
  // Pass 0 matches against the early receives; pass 1, when the plan has
  // late receives, appends them and matches the unexpected messages left.
  for (int pass = 0; pass < 2; ++pass) {
    if (pass == 1) {
      if (plan.late.empty()) break;
      for (std::size_t n = 0; n < in.size(); ++n) {
        for_step[n].reqs.push_n(in[n].late);
        for_match[n].reqs.push_n(in[n].late);
      }
    }
    for (NodeQueues& q : for_step) {
      if (q.msgs.empty() || q.reqs.empty()) continue;
      completions.clear();
      const std::int64_t a = now_ns();
      (void)pe.step(q.msgs, q.reqs, completions);
      step_ns += now_ns() - a;
      ++steps;
    }
    for (NodeQueues& q : for_match) {
      if (q.msgs.empty() || q.reqs.empty()) continue;
      const std::int64_t a = now_ns();
      me.match_queues(q.msgs, q.reqs, stats);
      match_ns += now_ns() - a;
      matches += stats.result.matched();
      cycles += stats.cycles;
      compact_cycles += model.cycles(stats.compact_events, /*resident_warps=*/32);
    }
  }
  const std::int64_t s1 = now_ns();
  spans.record("probe.progress_engine.step", plan.superstep, s0, s1, steps, step_ns);
  spans.record("probe.match.match_queues", plan.superstep, s0, s1, steps, match_ns);

  const auto msgs = static_cast<double>(plan.sends.size());
  const auto st = static_cast<double>(steps);
  return {.push_n_ns_per_msg = ratio(static_cast<double>(p1 - p0), msgs),
          .step_ns = ratio(static_cast<double>(step_ns), st),
          .step_overhead_ns = ratio(static_cast<double>(step_ns - match_ns), st),
          .step_ns_per_msg = ratio(static_cast<double>(step_ns), msgs),
          .ns_per_match = ratio(static_cast<double>(match_ns), static_cast<double>(matches)),
          .cycles_per_match = ratio(cycles, static_cast<double>(matches)),
          .compaction_share = ratio(compact_cycles, cycles)};
}

}  // namespace

ProbeResults run_probes(const ClusterConfig& cfg, const std::vector<Plan>& plans,
                        SpanLog* log,
                        const std::map<std::uint64_t, std::uint64_t>& parents) {
  ProbeSpans spans(log, parents);
  const simt::DeviceSpec& spec = simt::device(cfg.device);
  runtime::ProgressEngine pe(spec, cfg.semantics, simt::ExecutionPolicy::serial(),
                             /*shards=*/1, /*node=*/0, runtime::ReliabilityConfig{},
                             nullptr);
  const matching::MatchEngine me(spec, cfg.semantics, simt::ExecutionPolicy::serial());

  Samples inject, deliver, peak, pkts_per_msg;
  Samples make_data, on_packet, expire, on_packet_msg, expire_msg, retx, dups, goodput;
  Samples push_n, step, overhead, step_msg, per_match, cycles, compaction;
  for (const Plan& plan : plans) {
    const GasSample g = probe_gas(cfg, plan, spans);
    inject.add(g.inject_ns_per_pkt);
    deliver.add(g.deliver_ns_per_pkt);
    peak.add(g.delivered);
    pkts_per_msg.add(ratio(g.delivered, static_cast<double>(plan.sends.size())));

    const ReliabilitySample r = probe_reliability(cfg, plan, spans);
    make_data.add(r.make_data_ns);
    on_packet.add(r.on_packet_ns);
    expire.add(r.expire_ns);
    on_packet_msg.add(r.on_packet_ns_per_msg);
    expire_msg.add(r.expire_ns_per_msg);
    retx.add(r.retransmits_per_msg);
    dups.add(r.dups_per_msg);
    goodput.add(r.goodput);

    const EngineSample e = probe_engine(cfg, plan, pe, me, spans);
    push_n.add(e.push_n_ns_per_msg);
    step.add(e.step_ns);
    overhead.add(e.step_overhead_ns);
    step_msg.add(e.step_ns_per_msg);
    per_match.add(e.ns_per_match);
    cycles.add(e.cycles_per_match);
    compaction.add(e.compaction_share);
  }
  return {.gas_inject_ns_per_pkt = inject.median(),
          .gas_deliver_ns_per_pkt = deliver.median(),
          .gas_in_flight_peak = peak.median(),
          .gas_pkts_per_msg = pkts_per_msg.median(),
          .rel_make_data_ns = make_data.median(),
          .rel_on_packet_ns = on_packet.median(),
          .rel_expire_ns = expire.median(),
          .rel_on_packet_ns_per_msg = on_packet_msg.median(),
          .rel_expire_ns_per_msg = expire_msg.median(),
          .rel_retransmits_per_msg = retx.median(),
          .rel_dups_per_msg = dups.median(),
          .rel_goodput_ratio = goodput.median(),
          .queue_push_n_ns_per_msg = push_n.median(),
          .pe_step_ns = step.median(),
          .pe_step_overhead_ns = overhead.median(),
          .pe_step_ns_per_msg = step_msg.median(),
          .match_ns_per_match = per_match.median(),
          .match_modelled_cycles_per_match = cycles.median(),
          .match_compaction_cycle_share = compaction.median()};
}

}  // namespace hostbench
