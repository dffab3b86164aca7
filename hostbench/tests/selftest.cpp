// Self-test of the host benchmark's own logic: percentiles and the
// sample-count rule, failure accounting through the Verifier, workload
// generation (deterministic per seed, deadlock-free, verifiable on a real
// Cluster), and the Chrome trace JSON.  Exits non-zero on the first failed
// check.  Run: .bench_build/cmake/hostbench_selftest (or tests/test_run.py).
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "runtime/endpoint.hpp"
#include "telemetry/json.hpp"
#include "verify.hpp"
#include "workloads.hpp"

namespace {

using namespace hostbench;
using simtmsg::runtime::Cluster;
using simtmsg::runtime::RecvHandle;
using simtmsg::runtime::RecvResult;
using simtmsg::runtime::Stream;
using simtmsg::telemetry::Json;

int g_checks = 0;

#define CHECK(cond)                                                              \
  do {                                                                           \
    ++g_checks;                                                                  \
    if (!(cond)) {                                                               \
      std::cerr << __FILE__ << ":" << __LINE__ << ": check failed: " #cond "\n"; \
      std::exit(1);                                                              \
    }                                                                            \
  } while (0)

std::vector<double> iota_samples(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // Unsorted on purpose.
  return v;
}

void test_percentiles() {
  CHECK(percentile({}, 0.5) == 0.0);
  CHECK(percentile({7.0}, 0.9) == 7.0);
  CHECK(percentile(iota_samples(10), 0.5) == 5.0);
  CHECK(percentile(iota_samples(10), 0.9) == 9.0);
  CHECK(percentile(iota_samples(100), 0.9) == 90.0);
  CHECK(percentile(iota_samples(100), 1.0) == 100.0);
  CHECK(median(iota_samples(11)) == 6.0);
  // p90 is reported only with >= 10 samples beyond it: 100 samples, not 99.
  CHECK(samples_beyond(100, 0.9) == 10);
  CHECK(percentile_supported(100, 0.9));
  CHECK(samples_beyond(99, 0.9) == 9);
  CHECK(!percentile_supported(99, 0.9));
  CHECK(percentile_supported(20, 0.5));
  CHECK(!percentile_supported(0, 0.5));
}

void test_accounting() {
  Accounting a;
  CHECK(a.failed_frac() == 0.0);
  CHECK(!a.clean());  // Nothing attempted is not a clean run.
  a.attempted = 1000;
  CHECK(a.clean());
  a.failed = 3;
  CHECK(!a.clean());
  CHECK(std::fabs(a.failed_frac() - 0.003) < 1e-15);
}

/// What a correct cluster would return for every receive of `plan`: each
/// ANY_TAG receive takes the first unnamed send from its source.
std::vector<RecvResult> ideal_results(const Plan& plan) {
  std::vector<RecvResult> out;
  std::vector<bool> named(plan.sends.size(), false), taken(plan.sends.size(), false);
  for (const auto* ops : {&plan.early, &plan.late}) {
    for (const RecvOp& op : *ops) {
      if (op.msg >= 0) named[static_cast<std::size_t>(op.msg)] = true;
    }
  }
  for (const auto* ops : {&plan.early, &plan.late}) {
    for (const RecvOp& op : *ops) {
      std::size_t idx = 0;
      if (op.msg >= 0) {
        idx = static_cast<std::size_t>(op.msg);
      } else {
        while (named[idx] || taken[idx] || plan.sends[idx].to != op.node ||
               plan.sends[idx].from != op.src) {
          ++idx;
        }
      }
      taken[idx] = true;
      const SendOp& s = plan.sends[idx];
      out.push_back({s.from, s.tag, s.payload, s.stream});
    }
  }
  return out;
}

void test_verifier_accounting() {
  const Workload& w = *find_workload("wildcard_deep");
  Plan plan;
  plan.superstep = 3;
  w.generate(11, plan.superstep, plan);
  const std::vector<RecvResult> good = ideal_results(plan);
  Verifier v;

  v.begin(plan);
  for (std::size_t i = 0; i < good.size(); ++i) CHECK(v.check(i, good[i], good[i]));
  CHECK(v.missing() == 0);

  // A payload from another superstep, a result() that disagrees with wait(),
  // an envelope the receive does not allow, and a duplicate each fail once;
  // the sends they displaced show up as missing.
  std::vector<RecvResult> bad = good;
  bad[0].payload = make_payload(plan.superstep + 1, payload_index(bad[0].payload));
  bad[2].tag += 1;
  bad[3] = bad[4];
  v.begin(plan);
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < bad.size(); ++i) {
    const std::optional<RecvResult> read =
        i == 1 ? std::optional<RecvResult>{} : std::optional<RecvResult>{bad[i]};
    failed += v.check(i, bad[i], read) ? 0 : 1;
  }
  CHECK(failed == 4);
  CHECK(v.missing() == 4);  // Sends of receives 0, 1, 2 and 3.

  // The same delivery reported twice fails the second time.
  v.begin(plan);
  CHECK(v.check(0, good[0], good[0]));
  CHECK(!v.check(0, good[0], good[0]));
  CHECK(v.missing() == plan.sends.size() - 1);
}

void test_generators() {
  for (const Workload& w : workloads()) {
    Plan a, b, c;
    a.superstep = b.superstep = c.superstep = 5;
    w.generate(7, 5, a);
    w.generate(7, 5, b);
    w.generate(8, 5, c);
    CHECK(!a.sends.empty());
    CHECK(a.early.size() + a.late.size() == a.sends.size());
    CHECK(a.sends.size() == b.sends.size());
    bool same = true, differs = false;
    for (std::size_t i = 0; i < a.sends.size(); ++i) {
      same = same && a.sends[i].to == b.sends[i].to && a.sends[i].tag == b.sends[i].tag;
      differs = differs || i >= c.sends.size() || a.sends[i].to != c.sends[i].to ||
                a.sends[i].from != c.sends[i].from;
    }
    CHECK(same);
    CHECK(differs || w.name == "wildcard_deep");  // wildcard_deep's senders are fixed.
  }
  const Workload& deep = *find_workload("wildcard_deep");
  Plan p;
  deep.generate(1, 1, p);
  std::size_t any_src = 0, any_tag = 0;
  for (const auto* ops : {&p.early, &p.late}) {
    for (const RecvOp& op : *ops) {
      any_src += op.src == simtmsg::matching::kAnySource;
      any_tag += op.tag == simtmsg::matching::kAnyTag;
    }
  }
  const double n = static_cast<double>(p.sends.size());
  CHECK(p.sends.size() == 4 * 1024);
  CHECK(std::fabs(static_cast<double>(any_src) / n - 0.08) < 0.02);
  CHECK(std::fabs(static_cast<double>(any_tag) / n - 0.07) < 0.02);
  CHECK(std::fabs(static_cast<double>(p.early.size()) / n - 0.5) < 0.05);
}

/// Two supersteps of every workload on a real Cluster, driven the way the
/// benchmark drives them: nothing deadlocks and every result verifies.
void test_supersteps_verify_on_a_cluster() {
  for (const Workload& w : workloads()) {
    Cluster cluster(w.config(42));
    for (std::uint64_t s = 0; s < 2; ++s) {
      Plan plan;
      plan.superstep = s;
      w.generate(42, s, plan);
      std::vector<RecvHandle> handles;
      std::vector<RecvResult> results;
      const auto post = [&](const std::vector<RecvOp>& ops) {
        for (const RecvOp& r : ops) {
          handles.push_back(cluster.irecv(Stream{r.stream}, r.node, r.src, r.tag));
        }
      };
      post(plan.early);
      for (const SendOp& m : plan.sends) {
        (void)cluster.send(Stream{m.stream}, m.from, m.to, m.tag, m.payload);
      }
      for (const RecvHandle& h : handles) results.push_back(cluster.wait(h));
      post(plan.late);
      for (std::size_t i = results.size(); i < handles.size(); ++i) {
        results.push_back(cluster.wait(handles[i]));
      }
      Verifier v;
      v.begin(plan);
      for (std::size_t i = 0; i < handles.size(); ++i) {
        CHECK(v.check(i, results[i], cluster.result(handles[i])));
      }
      CHECK(v.missing() == 0);
      CHECK(cluster.delivery_failures().empty());
    }
  }
}

void test_trace_json() {
  SpanLog log;
  const std::uint64_t root = log.add(
      {.name = "superstep", .cat = "superstep", .superstep = 2, .start_ns = 1000, .dur_ns = 9000});
  log.add({.name = "Cluster::send \"quoted\"",
           .cat = "call",
           .parent = root,
           .superstep = 2,
           .start_ns = 2000,
           .dur_ns = 500,
           .calls = 4,
           .call_ns = 450});
  const Json doc = Json::parse(log.chrome_json());
  const Json& events = doc.at("traceEvents");
  CHECK(events.size() == 2);
  CHECK(events.at(0).at("ph").as_string() == "X");
  CHECK(events.at(0).at("ts").as_number() == 0.0);  // Relative to the first span.
  CHECK(events.at(1).at("ts").as_number() == 1.0);  // Microseconds.
  CHECK(events.at(1).at("name").as_string() == "Cluster::send \"quoted\"");
  CHECK(events.at(1).at("args").at("parent").as_uint() == root);
  CHECK(events.at(1).at("args").at("superstep").as_uint() == 2);
  CHECK(events.at(1).at("args").at("calls").as_uint() == 4);
  CHECK(!events.at(0).at("args").contains("calls"));
  CHECK(Json::parse(SpanLog{}.chrome_json()).at("traceEvents").size() == 0);
}

}  // namespace

int main() {
  test_percentiles();
  test_accounting();
  test_verifier_accounting();
  test_generators();
  test_supersteps_verify_on_a_cluster();
  test_trace_json();
  std::cout << "hostbench_selftest: " << g_checks << " checks passed\n";
  return 0;
}
