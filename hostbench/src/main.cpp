// Host wall-clock benchmark of the runtime::Cluster API (README.md here).
//
// One thread, one client, closed-loop BSP supersteps: post the receives,
// send, wait() on every handle in posted order, read and check every
// result, and only then start the next superstep.  The workload is generated
// from --seed; the library sees only Cluster calls.
//
//   hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// --trace 0 measures the end-to-end metrics.  --trace 1 is the separate
// traced run: it alternates traced and untraced supersteps, times every
// Cluster call of the traced ones, runs the layer probes (probes.hpp),
// writes the spans to <out-dir>/trace_<workload>_s<seed>.json and reports
// the per-layer metrics.  Either way the last stdout line is one JSON object
// (run.py turns it into the benchmark's result line); exit code 2 means bad
// arguments, 1 a failed run.
#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unistd.h>
#include <vector>

#include "alloc_count.hpp"
#include "ledger.hpp"
#include "probes.hpp"
#include "runtime/endpoint.hpp"
#include "telemetry/json.hpp"
#include "verify.hpp"
#include "workloads.hpp"

namespace hostbench {
namespace {

using simtmsg::runtime::Cluster;
using simtmsg::runtime::RecvHandle;
using simtmsg::runtime::RecvResult;
using simtmsg::runtime::Stream;
using simtmsg::telemetry::Json;
using simtmsg::telemetry::TelemetryReport;

constexpr int kMinTracedRunSupersteps = 20;
/// Traced supersteps whose plans feed the layer probes (the first is a
/// warm-up pass).
constexpr std::array<std::uint64_t, 4> kProbeSupersteps = {2, 4, 6, 8};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

template <typename T>
bool parse_number(std::string_view s, T& out) {
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && end == s.data() + s.size();
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return std::nullopt;
    const std::string_view flag = argv[i];
    const std::string_view value = argv[i + 1];
    int trace = 0;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      if (!parse_number(value, a.seed)) return std::nullopt;
    } else if (flag == "--seconds") {
      if (!parse_number(value, a.seconds) || !(a.seconds > 0.0)) return std::nullopt;
    } else if (flag == "--trace") {
      if (!parse_number(value, trace) || (trace != 0 && trace != 1)) return std::nullopt;
      a.trace = trace == 1;
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (find_workload(a.workload) == nullptr) return std::nullopt;
  return a;
}

/// A run of consecutive calls of one kind inside a superstep.
struct PhaseRecord {
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint64_t calls = 0;
  std::int64_t call_ns = 0;  ///< Inside the calls (traced supersteps only).
};

struct StepRecord {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::array<PhaseRecord, 6> phases{};
  std::size_t n_phases = 0;

  [[nodiscard]] double wall_ns() const { return static_cast<double>(end - start); }
};

struct NoOp {
  void operator()(std::size_t) const {}
};

/// Drives one Cluster through the workload's supersteps and checks every
/// result against the plan that produced it.
class Runner {
 public:
  Runner(const Workload& w, std::uint64_t seed)
      : workload_(w), seed_(seed), cfg_(w.config(seed)) {}

  [[nodiscard]] const simtmsg::runtime::ClusterConfig& config() const { return cfg_; }
  [[nodiscard]] Cluster& cluster() { return *cluster_; }
  [[nodiscard]] const Plan& plan() const { return plan_; }
  [[nodiscard]] const Accounting& accounting() const { return acct_; }
  [[nodiscard]] const std::vector<std::string>& problems() const { return problems_; }

  void make_plan(std::uint64_t superstep) {
    plan_.superstep = superstep;
    plan_.early.clear();
    plan_.sends.clear();
    plan_.late.clear();
    workload_.generate(seed_, superstep, plan_);
  }

  /// Destroys the current cluster, then builds a fresh one; returns the
  /// construction time in ns.
  std::int64_t rebuild() {
    cluster_.reset();
    failures_seen_ = 0;
    const std::int64_t t0 = now_ns();
    cluster_ = std::make_unique<Cluster>(cfg_);
    return now_ns() - t0;
  }

  /// Runs the current plan as one superstep.  False when the cluster threw
  /// (a deadlocked wait, a rejected call): the superstep's messages all count
  /// as failed and the run must stop.
  template <bool kTraced>
  bool run(StepRecord& rec) {
    acct_.attempted += plan_.sends.size();
    try {
      superstep<kTraced>(rec);
      return true;
    } catch (const std::exception& e) {
      acct_.failed += plan_.sends.size();
      note(std::string("superstep ") + std::to_string(plan_.superstep) + ": " + e.what());
      return false;
    }
  }

 private:
  /// Runs call(0..n) as one phase, each followed by the untimed after(i).
  /// Traced, the call spans are chained — one clock read per call, each span
  /// running from the previous stamp to the end of its call — so the loop's
  /// own bookkeeping (a store and an increment) is charged to the call, and
  /// only after() work (the result checks) is left outside every call span.
  template <bool kTraced, typename Call, typename After = NoOp>
  static void phase(StepRecord& rec, const char* name, std::size_t n, Call&& call,
                    After&& after = {}) {
    constexpr bool kHasAfter = !std::is_same_v<std::decay_t<After>, NoOp>;
    PhaseRecord& ph = rec.phases[rec.n_phases++];
    ph = {.name = name, .start = now_ns(), .calls = n};
    std::int64_t stamp = ph.start;
    for (std::size_t i = 0; i < n; ++i) {
      call(i);
      if constexpr (kTraced) {
        const std::int64_t t = now_ns();
        ph.call_ns += t - stamp;
        stamp = t;
      }
      if constexpr (kHasAfter) {
        after(i);
        if constexpr (kTraced) stamp = now_ns();
      }
    }
    ph.end = now_ns();
  }

  template <bool kTraced>
  void superstep(StepRecord& rec) {
    Cluster& c = *cluster_;
    const Plan& p = plan_;
    const std::size_t n_recv = p.early.size() + p.late.size();
    handles_.resize(n_recv);
    results_.resize(n_recv);
    verifier_.begin(p);
    rec.n_phases = 0;
    rec.start = now_ns();
    const auto post = [&](const std::vector<RecvOp>& ops, std::size_t base) {
      phase<kTraced>(rec, "irecv", ops.size(), [&](std::size_t i) {
        const RecvOp& r = ops[i];
        handles_[base + i] = c.irecv(Stream{r.stream}, r.node, r.src, r.tag);
      });
    };
    const auto wait = [&](std::size_t base, std::size_t n) {
      phase<kTraced>(rec, "wait", n,
                     [&](std::size_t i) { results_[base + i] = c.wait(handles_[base + i]); });
    };
    post(p.early, 0);
    phase<kTraced>(rec, "send", p.sends.size(), [&](std::size_t i) {
      const SendOp& s = p.sends[i];
      (void)c.send(Stream{s.stream}, s.from, s.to, s.tag, s.payload);
    });
    wait(0, p.early.size());
    if (!p.late.empty()) {
      post(p.late, p.early.size());
      wait(p.early.size(), p.late.size());
    }
    std::optional<RecvResult> got;
    phase<kTraced>(
        rec, "result", n_recv, [&](std::size_t i) { got = c.result(handles_[i]); },
        [&](std::size_t i) { check(i, got); });
    account_missing();
    rec.end = now_ns();
  }

  void check(std::size_t i, const std::optional<RecvResult>& got) {
    if (verifier_.check(i, results_[i], got)) return;
    ++acct_.failed;
    note("superstep " + std::to_string(plan_.superstep) + ": receive " + std::to_string(i) +
         " got a wrong or duplicate result (payload " + std::to_string(results_[i].payload) +
         ")");
  }

  /// Sends never delivered this superstep, and new fabric delivery failures.
  void account_missing() {
    const std::uint64_t missing = verifier_.missing();
    const std::size_t failures = cluster_->delivery_failures().size();
    const std::uint64_t fresh = failures - failures_seen_;
    failures_seen_ = failures;
    if (missing + fresh == 0) return;
    acct_.failed += missing + fresh;
    note("superstep " + std::to_string(plan_.superstep) + ": " + std::to_string(missing) +
         " sends undelivered, " + std::to_string(fresh) + " delivery failures");
  }

  void note(std::string what) {
    if (problems_.size() < 8) problems_.push_back(std::move(what));
  }

  const Workload& workload_;
  std::uint64_t seed_;
  simtmsg::runtime::ClusterConfig cfg_;
  std::unique_ptr<Cluster> cluster_;
  Plan plan_;
  std::vector<RecvHandle> handles_;
  std::vector<RecvResult> results_;
  Verifier verifier_;
  std::size_t failures_seen_ = 0;
  Accounting acct_;
  std::vector<std::string> problems_;
};

/// Set-up samples: Cluster construction plus one warm-up superstep,
/// setup_reps times, before anything else runs in the process (a set-up
/// taken later, beside a large live cluster, measures that heap as well).
/// The last cluster stays for the timed phase.
struct SetupTimes {
  std::vector<double> setup_s;
  std::vector<double> ctor_ms;
  bool ok = true;
};

SetupTimes setup(Runner& runner, const Workload& w) {
  SetupTimes t;
  StepRecord rec;
  for (int rep = 0; rep < w.setup_reps && t.ok; ++rep) {
    runner.make_plan(0);
    const std::int64_t t0 = now_ns();
    const std::int64_t ctor = runner.rebuild();
    t.ok = runner.run<false>(rec);
    t.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    t.ctor_ms.push_back(static_cast<double>(ctor) / 1e6);
  }
  return t;
}

std::uint64_t counter(const TelemetryReport& r, const char* name) {
  const auto it = r.counters.find(name);
  return it != r.counters.end() ? it->second : 0;
}

std::uint64_t issued(const TelemetryReport& r) {
  return r.scan_events.issued_instructions() + r.reduce_events.issued_instructions() +
         r.compact_events.issued_instructions();
}

std::uint64_t divergent(const TelemetryReport& r) {
  return r.scan_events.divergent_branches + r.reduce_events.divergent_branches +
         r.compact_events.divergent_branches;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

class MetricSet {
 public:
  void add(const char* name, double value, const char* unit) {
    Json m = Json::object();
    m.set("value", value);
    m.set("unit", unit);
    metrics_.set(name, std::move(m));
  }
  [[nodiscard]] Json take() { return std::move(metrics_); }

 private:
  Json metrics_ = Json::object();
};

/// A thread counts as having worked once it used this much CPU (5 clock
/// ticks, 50 ms at the usual 100 Hz); the benchmark's own thread uses seconds.
constexpr long kBusyThreadTicks = 5;

Json fingerprint(int threads_max, int busy_threads) {
  Json f = Json::object();
  f.set("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  f.set("compiler", __VERSION__);
  f.set("build_type", HOSTBENCH_BUILD_TYPE);
  f.set("telemetry", SIMTMSG_TELEMETRY_ENABLED ? "ON" : "OFF");
  // util::ThreadPool::shared() starts its workers on first use even when
  // every call is serial, so idle threads can exist; only busy ones count.
  f.set("threads_max", threads_max);
  f.set("busy_threads", busy_threads);
  return f;
}

/// The --trace 0 run: every end-to-end metric.
void measure_end_to_end(Runner& runner, const Workload& w, const Args& a,
                        const SetupTimes& setups, MetricSet& metrics, Json& info) {
  Cluster& c = runner.cluster();
  const simtmsg::runtime::ClusterStats base = c.stats();
  simtmsg::runtime::ClusterStats at_checkpoint = base;
  double peak_rss_at_checkpoint = static_cast<double>(peak_rss_bytes());
  std::vector<double> step_ms;
  std::uint64_t msgs = 0;
  double wall_ns = 0.0;
  StepRecord rec;
  const std::int64_t begin = now_ns();
  for (std::uint64_t s = 1;; ++s) {
    runner.make_plan(s);
    if (!runner.run<false>(rec)) break;
    step_ms.push_back(rec.wall_ns() / 1e6);
    msgs += runner.plan().sends.size();
    wall_ns += rec.wall_ns();
    if (s == static_cast<std::uint64_t>(w.checkpoint_supersteps)) {
      at_checkpoint = c.stats();
      peak_rss_at_checkpoint = static_cast<double>(peak_rss_bytes());
    }
    const double elapsed = static_cast<double>(now_ns() - begin) / 1e9;
    if (s >= static_cast<std::uint64_t>(w.max_supersteps) ||
        (s >= static_cast<std::uint64_t>(w.checkpoint_supersteps) && elapsed >= a.seconds)) {
      break;
    }
  }
  metrics.add("setup_s", median(setups.setup_s), "s");
  metrics.add("msgs_per_s", ratio(static_cast<double>(msgs), wall_ns / 1e9), "1/s");
  metrics.add("superstep_p50_ms", percentile(step_ms, 0.5), "ms");
  metrics.add("superstep_p90_ms", percentile(step_ms, 0.9), "ms");
  metrics.add("sim_time_us", at_checkpoint.virtual_time_us - base.virtual_time_us, "sim_us");
  metrics.add("modelled_mps",
              ratio(static_cast<double>(at_checkpoint.matches - base.matches),
                    at_checkpoint.matching_seconds - base.matching_seconds),
              "1/s");
  metrics.add("peak_rss_mb", peak_rss_at_checkpoint / (1024.0 * 1024.0), "MiB");
  info.set("superstep_samples", step_ms.size());
  info.set("p90_supported", percentile_supported(step_ms.size(), 0.9));
  info.set("setup_samples", setups.setup_s.size());
  info.set("checkpoint_supersteps", w.checkpoint_supersteps);
  info.set("checkpoint_reached",
           step_ms.size() >= static_cast<std::size_t>(w.checkpoint_supersteps));
  info.set("timed_messages", msgs);
}

/// Per-call totals of one Cluster call kind over the traced supersteps.
struct CallTotals {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
  [[nodiscard]] double per_call() const {
    return ratio(static_cast<double>(ns), static_cast<double>(calls));
  }
};

/// The --trace 1 run: every per-layer metric, and the trace file.
void measure_layers(Runner& runner, const Workload& w, const Args& a,
                    const SetupTimes& setups, MetricSet& metrics, Json& info) {
  Cluster& c = runner.cluster();
  const TelemetryReport before = c.snapshot();
  const std::uint64_t rss_before = rss_bytes();
  SpanLog log;
  log.reserve(4096);
  std::map<std::uint64_t, std::uint64_t> superstep_span;
  std::map<std::string, CallTotals> calls;
  std::vector<double> traced_rate, untraced_rate;
  double traced_wall = 0.0;
  std::int64_t traced_call_ns = 0;
  std::uint64_t traced_msgs = 0, untraced_msgs = 0, untraced_allocs = 0, all_msgs = 0;
  std::uint64_t supersteps = 0;
  StepRecord rec;
  const std::int64_t begin = now_ns();
  for (std::uint64_t s = 1;; ++s) {
    runner.make_plan(s);
    const std::uint64_t n = runner.plan().sends.size();
    const bool traced = s % 2 == 0;
    if (traced) {
      if (!runner.run<true>(rec)) break;
      traced_rate.push_back(ratio(static_cast<double>(n), rec.wall_ns() / 1e9));
      traced_wall += rec.wall_ns();
      traced_msgs += n;
      const std::uint64_t id = log.add({.name = "superstep",
                                        .cat = "superstep",
                                        .superstep = s,
                                        .start_ns = rec.start,
                                        .dur_ns = rec.end - rec.start});
      superstep_span[s] = id;
      for (std::size_t i = 0; i < rec.n_phases; ++i) {
        const PhaseRecord& ph = rec.phases[i];
        log.add({.name = std::string("Cluster::") + ph.name,
                 .cat = "call",
                 .parent = id,
                 .superstep = s,
                 .start_ns = ph.start,
                 .dur_ns = ph.end - ph.start,
                 .calls = ph.calls,
                 .call_ns = ph.call_ns});
        CallTotals& t = calls[ph.name];
        t.calls += ph.calls;
        t.ns += ph.call_ns;
        traced_call_ns += ph.call_ns;
      }
    } else {
      const std::uint64_t a0 = allocations();
      if (!runner.run<false>(rec)) break;
      untraced_allocs += allocations() - a0;
      untraced_rate.push_back(ratio(static_cast<double>(n), rec.wall_ns() / 1e9));
      untraced_msgs += n;
    }
    all_msgs += n;
    supersteps = s;
    const double elapsed = static_cast<double>(now_ns() - begin) / 1e9;
    if (s >= static_cast<std::uint64_t>(w.max_supersteps) ||
        (s >= kMinTracedRunSupersteps && elapsed >= a.seconds)) {
      break;
    }
  }
  const std::uint64_t rss_after = rss_bytes();
  const TelemetryReport after = c.snapshot();

  std::vector<Plan> probe_plans;
  for (const std::uint64_t s : kProbeSupersteps) {
    runner.make_plan(s);
    probe_plans.push_back(runner.plan());
  }
  const ProbeResults p = run_probes(runner.config(), probe_plans, &log, superstep_span);

  const auto delta = [&](const char* name) {
    return static_cast<double>(counter(after, name) - counter(before, name));
  };
  const double ticks = delta("runtime.scheduler.ticks");
  const double stepped = delta("runtime.scheduler.nodes_stepped");
  const auto matches = static_cast<double>(after.matches - before.matches);

  // runtime.endpoint
  metrics.add("endpoint.send_ns", calls["send"].per_call(), "ns");
  metrics.add("endpoint.irecv_ns", calls["irecv"].per_call(), "ns");
  metrics.add("endpoint.result_ns", calls["result"].per_call(), "ns");
  metrics.add("endpoint.wait_ns", calls["wait"].per_call(), "ns");
  metrics.add("endpoint.ctor_ms", median(setups.ctor_ms), "ms");
  metrics.add("endpoint.allocs_per_msg",
              ratio(static_cast<double>(untraced_allocs), static_cast<double>(untraced_msgs)),
              "count");
  metrics.add("endpoint.rss_b_per_msg",
              ratio(static_cast<double>(rss_after) - static_cast<double>(rss_before),
                    static_cast<double>(all_msgs)),
              "B");
  // runtime.scheduler
  metrics.add("scheduler.ticks_per_superstep", ratio(ticks, static_cast<double>(supersteps)),
              "count");
  metrics.add("scheduler.nodes_stepped_per_tick", ratio(stepped, ticks), "count");
  metrics.add("scheduler.wakes_per_msg",
              ratio(delta("runtime.scheduler.wakes"), static_cast<double>(all_msgs)), "count");
  metrics.add("scheduler.matches_per_node_step", ratio(matches, stepped), "ratio");
  // runtime.gas
  metrics.add("gas.inject_ns_per_pkt", p.gas_inject_ns_per_pkt, "ns");
  metrics.add("gas.deliver_ns_per_pkt", p.gas_deliver_ns_per_pkt, "ns");
  metrics.add("gas.in_flight_peak", p.gas_in_flight_peak, "count");
  // runtime.reliability
  metrics.add("reliability.make_data_ns", p.rel_make_data_ns, "ns");
  metrics.add("reliability.on_packet_ns", p.rel_on_packet_ns, "ns");
  metrics.add("reliability.expire_ns", p.rel_expire_ns, "ns");
  metrics.add("reliability.retransmits_per_msg", p.rel_retransmits_per_msg, "count");
  metrics.add("reliability.dups_per_msg", p.rel_dups_per_msg, "count");
  metrics.add("reliability.goodput_ratio", p.rel_goodput_ratio, "ratio");
  // runtime.progress_engine
  metrics.add("progress_engine.step_ns", p.pe_step_ns, "ns");
  metrics.add("progress_engine.step_overhead_ns", p.pe_step_overhead_ns, "ns");
  // matching
  metrics.add("queue.push_n_ns_per_msg", p.queue_push_n_ns_per_msg, "ns");
  metrics.add("match.ns_per_match", p.match_ns_per_match, "ns");
  metrics.add("match.modelled_cycles_per_match", p.match_modelled_cycles_per_match, "cycles");
  metrics.add("match.compaction_cycle_share", p.match_compaction_cycle_share, "ratio");
  // simt (exact, from the cluster snapshot)
  metrics.add("simt.issued_instructions_per_match",
              ratio(static_cast<double>(issued(after) - issued(before)), matches), "count");
  metrics.add("simt.divergent_branches_per_match",
              ratio(static_cast<double>(divergent(after) - divergent(before)), matches),
              "count");
  // Ledger checks.
  metrics.add("trace.overhead_frac", 1.0 - ratio(median(traced_rate), median(untraced_rate)),
              "ratio");
  metrics.add("trace.api_coverage", ratio(static_cast<double>(traced_call_ns), traced_wall),
              "ratio");
  // Wait-side layers: everything Cluster::wait drives (GAS delivery, queue
  // ingestion, the progress step with its matcher, and the reliability
  // channel when the cluster runs it), per message, over the wait time.
  double wait_side_ns_per_msg = p.gas_deliver_ns_per_pkt * p.gas_pkts_per_msg +
                                p.queue_push_n_ns_per_msg + p.pe_step_ns_per_msg;
  if (runner.config().reliability.enabled) {
    wait_side_ns_per_msg += p.rel_on_packet_ns_per_msg + p.rel_expire_ns_per_msg;
  }
  metrics.add("layers.wait_explained_frac",
              ratio(wait_side_ns_per_msg * static_cast<double>(traced_msgs),
                    static_cast<double>(calls["wait"].ns)),
              "ratio");

  std::filesystem::create_directories(a.out_dir);
  const std::string path =
      a.out_dir + "/trace_" + a.workload + "_s" + std::to_string(a.seed) + ".json";
  log.write(path);
  info.set("trace_file", path);
  info.set("spans", log.spans().size());
  info.set("supersteps", supersteps);
  info.set("traced_supersteps", traced_rate.size());
  info.set("untraced_supersteps", untraced_rate.size());
}

int run(const Args& a) {
  const Workload& w = *find_workload(a.workload);
  Runner runner(w, a.seed);
  int threads_max = thread_count();
  const SetupTimes setups = setup(runner, w);
  const bool setup_ok = setups.ok;
  threads_max = std::max(threads_max, thread_count());

  MetricSet metrics;
  Json info = Json::object();
  if (setup_ok) {
    if (a.trace) {
      measure_layers(runner, w, a, setups, metrics, info);
    } else {
      measure_end_to_end(runner, w, a, setups, metrics, info);
    }
  }
  threads_max = std::max(threads_max, thread_count());

  const int busy_threads = busy_thread_count(kBusyThreadTicks);

  const Accounting& acct = runner.accounting();
  std::vector<std::string> problems = runner.problems();
  if (busy_threads > 1) {
    problems.push_back(std::to_string(busy_threads) + " threads did work; expected 1");
  }
  if (!a.trace && info.contains("checkpoint_reached") &&
      !info.at("checkpoint_reached").as_bool()) {
    problems.push_back("run ended before the checkpoint superstep");
  }
  const bool correct = setup_ok && acct.clean() && problems.empty();
  info.set("failed_frac", acct.failed_frac());
  Json problem_list = Json::array();
  for (const std::string& p : problems) problem_list.push(p);

  Json out = Json::object();
  out.set("workload", a.workload);
  out.set("seed", a.seed);
  out.set("trace", a.trace ? 1 : 0);
  out.set("correct", correct);
  out.set("attempted", acct.attempted);
  out.set("failed", acct.failed);
  out.set("metrics", metrics.take());
  out.set("info", std::move(info));
  out.set("problems", std::move(problem_list));
  out.set("fingerprint", fingerprint(threads_max, busy_threads));
  std::cout << out.dump(-1) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  const auto args = hostbench::parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: hostbench --workload <ring_bulk|lossy_streams|wildcard_deep> "
                 "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n";
    return 2;
  }
  try {
    return hostbench::run(*args);
  } catch (const std::exception& e) {
    std::cerr << "hostbench: " << e.what() << '\n';
    return 1;
  }
}
