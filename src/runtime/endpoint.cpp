#include "runtime/endpoint.hpp"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>

namespace simtmsg::runtime {

int default_max_streams() {
  // The environment picks the default so whole suites can be re-run with a
  // different stream budget without code changes.  SIMTMSG_STREAMS=1 pins
  // clusters to the default stream.
  if (const char* env = std::getenv("SIMTMSG_STREAMS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 && v <= 1'000'000) {
      return static_cast<int>(v);
    }
  }
  return 64;
}

namespace {

/// Validate before any member is constructed (gas_ sizes vectors off
/// cfg.nodes; a negative count must fail with a typed error, not a
/// bad_alloc from a huge size_t cast).
ClusterConfig validated(ClusterConfig cfg) {
  if (cfg.nodes < 1) {
    throw std::invalid_argument("ClusterConfig.nodes must be >= 1 (got " +
                                std::to_string(cfg.nodes) + ")");
  }
  if (cfg.shards_per_node < 1) {
    throw std::invalid_argument("ClusterConfig.shards_per_node must be >= 1 (got " +
                                std::to_string(cfg.shards_per_node) + ")");
  }
  if (cfg.scheduler != SchedulerPolicy::kEventDriven) {
    throw std::invalid_argument(
        "ClusterConfig.scheduler is not a valid SchedulerPolicy (got " +
        std::to_string(static_cast<int>(cfg.scheduler)) + ")");
  }
  if (!matching::valid(cfg.semantics)) {
    throw std::invalid_argument("ClusterConfig.semantics inconsistent: " +
                                matching::describe(cfg.semantics));
  }
  if (cfg.max_streams < 1) {
    throw std::invalid_argument(
        "ClusterConfig.max_streams must be >= 1 (stream 0 always exists; got " +
        std::to_string(cfg.max_streams) + ")");
  }
  return cfg;
}

}  // namespace

Cluster::Cluster(ClusterConfig cfg)
    : cfg_(validated(std::move(cfg))),
      gas_(cfg_.nodes, cfg_.network, &fabric_telemetry_),
      scheduler_(cfg_.nodes, scheduler_probe()) {
  const auto& device = simt::device(cfg_.device);
  engines_.reserve(static_cast<std::size_t>(cfg_.nodes));
  posted_.resize(static_cast<std::size_t>(cfg_.nodes));
  for (int n = 0; n < cfg_.nodes; ++n) {
    engines_.emplace_back(device, cfg_.semantics, cfg_.policy, cfg_.shards_per_node, n,
                          cfg_.reliability, &fabric_telemetry_);
  }
}

Scheduler::Probe Cluster::scheduler_probe() {
  return Scheduler::Probe{
      .runnable =
          [this](int n) {
            return !gas_.incoming(n).empty() &&
                   !posted_[static_cast<std::size_t>(n)].empty();
          },
      .rto_deadline =
          [this](int n) {
            return cfg_.reliability.enabled
                       ? engines_[static_cast<std::size_t>(n)].reliability().next_deadline()
                       : -1.0;
          },
  };
}

void Cluster::inject(Packet&& p) {
  // A negative arrival means the wire dropped the packet; the reliability
  // timers recover (or report) it.
  (void)gas_.inject(std::move(p), now_us_);
}

void Cluster::wake(int node) {
  ++wakes_;
  scheduler_.wake(node);
}

void Cluster::validate_stream(Stream stream) const {
  if (stream.id < 0 || stream.id >= cfg_.max_streams) {
    throw std::invalid_argument(
        "stream id " + std::to_string(stream.id) + " outside [0, " +
        std::to_string(cfg_.max_streams) + ") (ClusterConfig.max_streams)");
  }
}

SendHandle Cluster::send(Stream stream, int from, int to, matching::Tag tag,
                         std::uint64_t payload, matching::CommId comm,
                         std::size_t bytes) {
  validate_stream(stream);
  if (from < 0 || from >= cfg_.nodes) throw std::out_of_range("sender out of range");
  if (to < 0 || to >= cfg_.nodes) throw std::out_of_range("destination node out of range");
  if (tag < 0) throw std::invalid_argument("send tag must be concrete");
  matching::Envelope env{.src = from, .tag = tag, .comm = comm, .stream = stream.id};
  if (cfg_.reliability.enabled) {
    inject(engines_[static_cast<std::size_t>(from)].reliability().make_data(
        to, env, payload, bytes, now_us_));
    // make_data armed (or re-armed) the sender's retransmit timer.
    scheduler_.rto_touched(from);
  } else {
    (void)gas_.remote_enqueue(from, to, env, payload, bytes, now_us_);
  }
  ++sends_;
  if (stream.id != matching::kDefaultStream) ++stream_sends_[stream.id];
  return {from, to, next_send_id_++};
}

SendHandle Cluster::send(int from, int to, matching::Tag tag, std::uint64_t payload,
                         matching::CommId comm, std::size_t bytes) {
  return send(Stream{}, from, to, tag, payload, comm, bytes);
}

RecvHandle Cluster::irecv(Stream stream, int node, matching::Rank src,
                          matching::Tag tag, matching::CommId comm) {
  validate_stream(stream);
  if (node < 0 || node >= cfg_.nodes) throw std::out_of_range("node out of range");
  matching::Envelope env{.src = src, .tag = tag, .comm = comm, .stream = stream.id};
  if (!cfg_.semantics.wildcards && matching::has_wildcard(env)) {
    throw std::invalid_argument("wildcards are prohibited by the cluster semantics");
  }
  matching::RecvRequest req;
  req.env = env;
  req.user_data = next_handle_;
  posted_[static_cast<std::size_t>(node)].push(req);
  pending_.emplace(next_handle_, PendingRecv{node, env});
  ++posts_;
  if (stream.id != matching::kDefaultStream) ++stream_posts_[stream.id];
  wake(node);
  return {node, next_handle_++};
}

RecvHandle Cluster::irecv(int node, matching::Rank src, matching::Tag tag,
                          matching::CommId comm) {
  return irecv(Stream{}, node, src, tag, comm);
}

bool Cluster::test(RecvHandle h) const { return completed_.contains(h.id); }

bool Cluster::cancel(RecvHandle h) {
  const auto it = pending_.find(h.id);
  if (it == pending_.end()) return false;
  auto& queue = posted_[static_cast<std::size_t>(it->second.node)];
  std::vector<std::uint8_t> matched(queue.size(), 0);
  for (std::size_t i = 0; i < queue.size(); ++i) {
    if (queue[i].user_data == h.id) matched[i] = 1;
  }
  (void)queue.compact(matched);
  const int node = it->second.node;
  pending_.erase(it);
  ++cancels_;
  // The node may have just gone idle.
  scheduler_.stepped(node, !gas_.incoming(node).empty() && !queue.empty());
  return true;
}

std::optional<RecvResult> Cluster::result(RecvHandle h) const {
  const auto it = completed_.find(h.id);
  if (it == completed_.end()) return std::nullopt;
  return it->second;
}

std::size_t Cluster::progress() {
  ++ticks_;

  // Advance the clock to the next event: the earliest in-flight arrival or
  // the earliest retransmit deadline.
  double next = gas_.next_arrival();
  const double rto = scheduler_.next_rto_deadline();
  if (rto >= 0.0 && (next < 0.0 || rto < next)) next = rto;
  if (next >= 0.0) now_us_ = std::max(now_us_, next);

  raw_.clear();
  (void)gas_.deliver_raw_until(now_us_, raw_);
  if (cfg_.reliability.enabled) {
    // Raw wire packets go through each destination's reliability channel:
    // verify, dedup, ack, and release accepted messages (in order when the
    // semantics demand it) into the node's incoming queue.
    replies_.clear();
    for (const Packet& p : raw_) {
      accepted_.clear();
      engines_[static_cast<std::size_t>(p.to)].reliability().on_packet(
          p, now_us_, accepted_, replies_);
      gas_.incoming(p.to).push_n(accepted_);  // Bulk append, one seq-stamp run.
      if (!accepted_.empty()) wake(p.to);
      // Data changed the receiver's dedup state; an ack cleared a pending
      // send.  Either way p.to's earliest deadline may differ now.
      scheduler_.rto_touched(p.to);
    }
    for (Packet& r : replies_) inject(std::move(r));

    // Fire expired retransmit timers (and report exhausted sends),
    // ascending by node id: retransmit injection order stamps wire
    // sequences, which the fault draws are keyed on.
    scheduler_.collect_due(now_us_, due_);
    rto_expiries_ += due_.size();
    resend_.clear();
    for (const int n : due_) {
      engines_[static_cast<std::size_t>(n)].reliability().expire(now_us_, resend_,
                                                                 failures_);
      scheduler_.rto_touched(n);
    }
    for (Packet& r : resend_) inject(std::move(r));
  } else {
    // Batched ingestion: raw_ is arrival-ordered, so contiguous packets to
    // the same destination form a run the queue can absorb with one bulk
    // push_n.  Per-queue arrival order — and therefore sequence stamping —
    // is identical to pushing per packet; wake() is level-triggered, so one
    // wake per run is equivalent to one per packet.
    std::size_t i = 0;
    while (i < raw_.size()) {
      const int to = raw_[i].to;
      ingest_batch_.clear();
      for (; i < raw_.size() && raw_[i].to == to; ++i) {
        matching::Message m;
        m.env = raw_[i].env;
        m.payload = raw_[i].payload;
        ingest_batch_.push_back(m);
      }
      gas_.incoming(to).push_n(ingest_batch_);
      wake(to);
    }
  }

  // Step every node whose communication kernel has matching work — and
  // only those.
  scheduler_.collect_active(active_);
  nodes_stepped_ += active_.size();
  idle_steps_skipped_ += static_cast<std::uint64_t>(cfg_.nodes) - active_.size();
  active_set_peak_ = std::max(active_set_peak_, active_.size());
  completions_.clear();
  std::size_t matched = 0;
  for (const int n : active_) {
    const StepResult r = engines_[static_cast<std::size_t>(n)].step(
        gas_.incoming(n), posted_[static_cast<std::size_t>(n)], completions_);
    matched += r.matched;
    scheduler_.stepped(n, r.runnable);
  }
  for (const auto& c : completions_) {
    completed_[c.handle] =
        RecvResult{c.msg_env.src, c.msg_env.tag, c.payload, c.msg_env.stream};
    pending_.erase(c.handle);
  }
  return matched;
}

bool Cluster::quiesced() {
  if (!gas_.idle()) return false;
  if (cfg_.reliability.enabled) {
    // A channel is idle exactly when it has no armed deadline, so the
    // scheduler's wheel answers fleet-wide reliability quiescence.
    if (!scheduler_.rto_idle()) return false;
    // Nothing in flight, every sender done: messages still held for
    // in-order release are permanently stuck behind a failed sequence.
    for (auto& e : engines_) e.reliability().sweep_stranded(now_us_, failures_);
  }
  return true;
}

void Cluster::run_until_quiescent() {
  for (;;) {
    const std::size_t matched = progress();
    if (matched == 0 && quiesced()) return;
  }
}

void Cluster::barrier() {
  run_until_quiescent();
  if (!cfg_.semantics.unexpected) {
    // Enforcement sweep: every node, not just the active set — a node with
    // leftover unexpected messages and no posted receives is exactly what
    // this is here to catch.
    std::vector<Completion> sink;
    for (int n = 0; n < cfg_.nodes; ++n) {
      const StepResult r = engines_[static_cast<std::size_t>(n)].step(
          gas_.incoming(n), posted_[static_cast<std::size_t>(n)], sink,
          /*enforce_expected=*/true);
      scheduler_.stepped(n, r.runnable);
    }
  }
}

NodeActivity Cluster::node_activity(int node) const {
  if (node < 0 || node >= cfg_.nodes) throw std::out_of_range("node out of range");
  if (cfg_.reliability.enabled &&
      engines_[static_cast<std::size_t>(node)].reliability().next_deadline() >= 0.0) {
    return NodeActivity::kAwaitingRetransmit;
  }
  const bool has_msgs = !gas_.incoming(node).empty();
  const bool has_recvs = !posted_[static_cast<std::size_t>(node)].empty();
  if (has_msgs && has_recvs) return NodeActivity::kRunnable;
  if (has_recvs) return NodeActivity::kStarved;
  return NodeActivity::kIdle;
}

RecvResult Cluster::wait(RecvHandle h) {
  for (;;) {
    if (const auto r = result(h)) return *r;
    const std::size_t matched = progress();
    if (matched == 0 && quiesced()) {
      if (const auto r = result(h)) return *r;
      // Name the stuck handle so a chaos-test failure is diagnosable: which
      // node's queue it sits in, and the posted (src, tag, comm) that never
      // found a message.  The pending index makes both lookups O(1).
      std::string why = "wait(): cluster quiescent, receive cannot complete (node " +
                        std::to_string(h.node) + ", handle " + std::to_string(h.id);
      const auto it = pending_.find(h.id);
      if (it != pending_.end()) {
        why += ", posted " + matching::to_string(it->second.env);
      } else {
        why += ", not in the posted queue";
      }
      why += ")";
      if (h.node >= 0 && h.node < cfg_.nodes) {
        why += " (scheduler view: " + std::string(to_string(node_activity(h.node))) +
               ")";
      }
      if (!failures_.empty()) {
        why += " (" + std::to_string(failures_.size()) +
               " delivery failure(s) recorded; see delivery_failures())";
      }
      throw std::runtime_error(why);
    }
  }
}

ClusterStats Cluster::stats() const {
  const telemetry::TelemetryReport r = snapshot();
  const auto counter = [&r](const char* name) -> std::uint64_t {
    const auto it = r.counters.find(name);
    return it != r.counters.end() ? it->second : 0;
  };
  const auto gauge = [&r](const char* name) -> double {
    const auto it = r.gauges.find(name);
    return it != r.gauges.end() ? it->second : 0.0;
  };
  ClusterStats s;
  s.messages_sent = counter("runtime.cluster.messages_sent");
  s.receives_posted = counter("runtime.cluster.receives_posted");
  s.matches = r.matches;
  s.delivery_failures = counter("runtime.cluster.delivery_failures");
  s.matching_seconds = r.seconds;
  s.virtual_time_us = gauge("runtime.cluster.virtual_time_us");
  return s;
}

telemetry::TelemetryReport Cluster::snapshot() const {
  telemetry::TelemetryReport total;
  for (int n = 0; n < cfg_.nodes; ++n) {
    const auto node_report = engines_[static_cast<std::size_t>(n)].snapshot();
    // Fold the per-node modelled matching time in as a named gauge (the
    // former node_matching_seconds(int) accessor).
    total.gauges["runtime.node." + std::to_string(n) + ".matching_seconds"] =
        node_report.seconds;
    total.merge(node_report);
  }
  total.absorb(fabric_telemetry_);
  // Headline cluster counters: the single source of truth stats() reads.
  total.counters["runtime.cluster.messages_sent"] = sends_;
  total.counters["runtime.cluster.receives_posted"] = posts_;
  total.counters["runtime.cluster.receives_cancelled"] = cancels_;
  total.counters["runtime.cluster.delivery_failures"] = failures_.size();
  total.gauges["runtime.cluster.virtual_time_us"] = now_us_;
  // Scheduler instruments: identical for every host thread count.
  total.counters["runtime.scheduler.ticks"] = ticks_;
  total.counters["runtime.scheduler.nodes_stepped"] = nodes_stepped_;
  total.counters["runtime.scheduler.idle_steps_skipped"] = idle_steps_skipped_;
  total.counters["runtime.scheduler.wakes"] = wakes_;
  total.counters["runtime.scheduler.rto_expiries"] = rto_expiries_;
  total.gauges["runtime.scheduler.active_set_peak"] =
      static_cast<double>(active_set_peak_);
  // Per-stream traffic (docs/streams.md).  Only non-default streams export
  // counters, so a default-stream-only run's snapshot stays byte-identical
  // to the pre-stream runtime's.
  if (!stream_sends_.empty() || !stream_posts_.empty()) {
    std::set<matching::StreamId> domains;
    for (const auto& [stream, n] : stream_sends_) {
      domains.insert(stream);
      total.counters["runtime.stream." + std::to_string(stream) + ".messages_sent"] = n;
    }
    for (const auto& [stream, n] : stream_posts_) {
      domains.insert(stream);
      total.counters["runtime.stream." + std::to_string(stream) +
                     ".receives_posted"] = n;
    }
    // The default stream is always live even when its counters are elided.
    total.counters["runtime.stream.domains"] = domains.size() + 1;
  }
  return total;
}

}  // namespace simtmsg::runtime
