// GAS oracle wall: GlobalAddressSpace (per-domain FIFO lanes merged through
// one heap of lane heads) against the former single-heap GAS kept in
// gas_oracle.hpp.  Both see the same seeded random interleaving of
// inject / remote_enqueue, next_arrival and deliver_raw_until horizons,
// over fleets of {1, 2, 7, 64} nodes, {1, 8} streams, mixed packet sizes,
// jitter on and off, probabilistic and scripted faults (drop, duplicate,
// corrupt, delay spike) and allow_pair_reorder on and off.  They must
// agree on every returned arrival, every released Packet field by field in
// order, and every runtime.fault.* counter.
//
// Each case derives its seed from SIMTMSG_FUZZ_SEED; a failure prints the
// replay recipe:
//
//   SIMTMSG_FUZZ_SEED=<seed> ./test_runtime --gtest_filter='GasOracle.*'
#include "runtime/gas.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "gas_oracle.hpp"
#include "telemetry/report.hpp"

namespace simtmsg::runtime {
namespace {

std::uint64_t base_seed() {
  const char* v = std::getenv("SIMTMSG_FUZZ_SEED");
  if (v == nullptr || *v == '\0') return 0x6A5u;
  char* end = nullptr;
  const std::uint64_t parsed = std::strtoull(v, &end, 10);
  return end == v ? 0x6A5u : parsed;
}

std::string replay_hint(std::uint64_t base, int case_index) {
  return "case " + std::to_string(case_index) + "; replay: SIMTMSG_FUZZ_SEED=" +
         std::to_string(base) + " ./test_runtime --gtest_filter='GasOracle.*'";
}

/// Field-by-field packet comparison; doubles compared with ==.
std::string diff(const Packet& a, const Packet& b) {
  std::string why;
  const auto field = [&why](const char* name, bool same) {
    if (!same) why += std::string(" ") + name;
  };
  field("from", a.from == b.from);
  field("to", a.to == b.to);
  field("env", a.env == b.env);
  field("payload", a.payload == b.payload);
  field("bytes", a.bytes == b.bytes);
  field("arrival_us", a.arrival_us == b.arrival_us);
  field("sequence", a.sequence == b.sequence);
  field("kind", a.kind == b.kind);
  field("pair_seq", a.pair_seq == b.pair_seq);
  field("checksum", a.checksum == b.checksum);
  field("attempt", a.attempt == b.attempt);
  return why;
}

enum class Faults { kNone, kRandom, kScripted };

struct Shape {
  int nodes;
  int streams;
  bool jitter;
  bool reorder;
  Faults faults;
};

NetworkConfig network_for(const Shape& s, std::uint64_t seed) {
  NetworkConfig net{.latency_us = 1.3, .bandwidth_gbs = 40.0, .jitter_us = 0.0,
                    .seed = seed, .faults = {}};
  if (s.jitter) net.jitter_us = 2.5;
  net.faults.allow_pair_reorder = s.reorder;
  if (s.faults == Faults::kRandom) {
    net.faults.drop_prob = 0.08;
    net.faults.dup_prob = 0.15;
    net.faults.corrupt_prob = 0.1;
    net.faults.delay_spike_prob = 0.1;
    net.faults.delay_spike_us = 25.0;
  } else if (s.faults == Faults::kScripted) {
    // A fixed verdict cycle keyed on the wire sequence and the stream.
    net.faults.script = [](const Packet& p) {
      WireFault f;
      switch ((p.sequence * 7 + static_cast<std::uint64_t>(p.env.stream)) % 9) {
        case 0: f.drop = true; break;
        case 1: f.duplicate = true; break;
        case 2: f.corrupt = true; break;
        case 3: f.extra_delay_us = 40.0; break;
        case 4: f.duplicate = true; f.extra_delay_us = 3.0; break;
        case 5: f.duplicate = true; f.corrupt = true; break;
        default: break;
      }
      return f;
    };
  }
  return net;
}

/// Drives both implementations through one random interleaving of `ops`
/// calls, `inject_pct` percent of them injections; returns an empty string
/// when they agree, else the first disagreement.
std::string run_case(const Shape& shape, std::uint64_t seed, int ops, int inject_pct) {
  const NetworkConfig net = network_for(shape, seed);
  telemetry::Registry lib_sink;
  telemetry::Registry ref_sink;
  GlobalAddressSpace gas(shape.nodes, net, &lib_sink);
  oracle::GasOracle ref(shape.nodes, net, &ref_sink);

  std::mt19937_64 rng(seed);
  const auto below = [&rng](std::uint64_t n) {
    return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(rng);
  };
  constexpr std::size_t kBytes[] = {0, 8, 8, 64, 1500, 65536};
  double clock = 0.0;
  std::vector<Packet> lib_out;
  std::vector<Packet> ref_out;

  const auto compare_delivery = [&](double until, int op) -> std::string {
    lib_out.clear();
    ref_out.clear();
    const std::size_t lib_n = gas.deliver_raw_until(until, lib_out);
    const std::size_t ref_n = ref.deliver_raw_until(until, ref_out);
    if (lib_n != ref_n || lib_out.size() != ref_out.size()) {
      return "op " + std::to_string(op) + ": delivered " + std::to_string(lib_n) +
             " vs oracle " + std::to_string(ref_n);
    }
    for (std::size_t i = 0; i < lib_out.size(); ++i) {
      const std::string why = diff(lib_out[i], ref_out[i]);
      if (!why.empty()) {
        return "op " + std::to_string(op) + ": released packet " + std::to_string(i) +
               " differs in" + why;
      }
    }
    return {};
  };

  for (int op = 0; op < ops; ++op) {
    const std::uint64_t what = below(100);
    if (what < static_cast<std::uint64_t>(inject_pct)) {
      // Injection, mostly at the advancing clock, sometimes in its past.
      clock += static_cast<double>(below(4)) * 0.25;
      const double now = below(10) == 0 ? clock - static_cast<double>(below(5)) : clock;
      Packet p;
      p.from = static_cast<int>(below(static_cast<std::uint64_t>(shape.nodes)));
      p.to = static_cast<int>(below(static_cast<std::uint64_t>(shape.nodes)));
      p.env = {.src = p.from,
               .tag = static_cast<matching::Tag>(below(32)),
               .comm = static_cast<matching::CommId>(below(2)),
               .stream = static_cast<matching::StreamId>(
                   below(static_cast<std::uint64_t>(shape.streams)))};
      p.payload = rng();
      p.bytes = kBytes[below(std::size(kBytes))];
      double lib_arrival = 0.0;
      double ref_arrival = 0.0;
      if (below(2) == 0) {
        lib_arrival = gas.remote_enqueue(p.from, p.to, p.env, p.payload, p.bytes, now);
        ref_arrival = ref.remote_enqueue(p.from, p.to, p.env, p.payload, p.bytes, now);
      } else {
        p.kind = below(4) == 0 ? PacketKind::kAck : PacketKind::kData;
        p.pair_seq = below(1000);
        p.checksum = rng();
        p.attempt = 1 + static_cast<int>(below(3));
        lib_arrival = gas.inject(p, now);
        ref_arrival = ref.inject(p, now);
      }
      if (lib_arrival != ref_arrival) {
        return "op " + std::to_string(op) + ": inject returned " +
               std::to_string(lib_arrival) + " vs oracle " + std::to_string(ref_arrival);
      }
    } else if (what < static_cast<std::uint64_t>(inject_pct) + 10) {
      if (gas.next_arrival() != ref.next_arrival() || gas.idle() != ref.idle() ||
          gas.total_injected() != ref.total_injected()) {
        return "op " + std::to_string(op) + ": next_arrival/idle/total_injected differ";
      }
    } else {
      // Delivery horizons: exactly the next arrival, just short of it, a
      // random point ahead of the clock, or everything.
      double until = clock + static_cast<double>(below(8));
      const std::uint64_t kind = below(4);
      if (kind == 0 && !ref.idle()) until = ref.next_arrival();
      if (kind == 1 && !ref.idle()) until = ref.next_arrival() - 1e-9;
      if (kind == 2) until = 1e18;
      if (std::string why = compare_delivery(until, op); !why.empty()) return why;
      if (until < 1e17) clock = std::max(clock, until);
    }
  }
  if (std::string why = compare_delivery(1e18, ops); !why.empty()) return why;
  if (!gas.idle() || !ref.idle()) return "in flight after the final drain";

  telemetry::TelemetryReport lib_report;
  telemetry::TelemetryReport ref_report;
  lib_report.absorb(lib_sink);
  ref_report.absorb(ref_sink);
  if (lib_report.counters != ref_report.counters) return "runtime.fault.* counters differ";
  return {};
}

/// Every shape of the grid for one fault mode, each with its own seed.
void sweep(Faults faults, int ops, std::uint64_t salt) {
  const std::uint64_t base = base_seed();
  int index = 0;
  for (const int nodes : {1, 2, 7, 64}) {
    for (const int streams : {1, 8}) {
      for (const bool jitter : {false, true}) {
        for (const bool reorder : {false, true}) {
          const Shape shape{nodes, streams, jitter, reorder, faults};
          const std::uint64_t seed = base * 0x9E3779B97F4A7C15ull + salt + index;
          const std::string why = run_case(shape, seed, ops, 60);
          EXPECT_TRUE(why.empty())
              << why << " (nodes " << nodes << ", streams " << streams << ", jitter "
              << jitter << ", reorder " << reorder << "; " << replay_hint(base, index)
              << ")";
          ++index;
        }
      }
    }
  }
}

TEST(GasOracle, FaultFreeInterleavingsAgree) { sweep(Faults::kNone, 3000, 0x100); }

TEST(GasOracle, RandomFaultInterleavingsAgree) { sweep(Faults::kRandom, 3000, 0x200); }

TEST(GasOracle, ScriptedFaultInterleavingsAgree) { sweep(Faults::kScripted, 3000, 0x300); }

/// Deep lanes: few domains and rare deliveries, so each lane holds dozens
/// of packets and its successor chain, not only its head, decides the
/// merge.
TEST(GasOracle, DeepLanesAgree) {
  const std::uint64_t base = base_seed();
  int index = 0;
  for (const bool reorder : {false, true}) {
    for (const Faults faults : {Faults::kNone, Faults::kRandom}) {
      const Shape shape{2, 2, true, reorder, faults};
      const std::uint64_t seed = base * 0x9E3779B97F4A7C15ull + 0x400 + index;
      const std::string why = run_case(shape, seed, 20000, 88);
      EXPECT_TRUE(why.empty()) << why << " (reorder " << reorder << "; "
                               << replay_hint(base, index) << ")";
      ++index;
    }
  }
}

}  // namespace
}  // namespace simtmsg::runtime
