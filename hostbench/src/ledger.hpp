// Measurement plumbing of the host benchmark: percentiles with their
// sample-count rule, failure accounting, the in-memory span log written as
// Chrome trace-event JSON, and process probes (RSS, thread count).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace hostbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (q in (0, 1]) of `samples`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// Samples strictly above the nearest-rank q-th percentile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// A percentile is reported only when at least this many samples lie beyond
/// it (so p90 needs >= 100 samples).
inline constexpr std::size_t kMinSamplesBeyond = 10;

[[nodiscard]] inline bool percentile_supported(std::size_t n, double q) {
  return n > 0 && samples_beyond(n, q) >= kMinSamplesBeyond;
}

[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

/// Messages attempted and failure events: a wrong or duplicate result, a
/// message never delivered, or a delivery failure the fabric reported.
struct Accounting {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] double failed_frac() const noexcept {
    return attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                         : 0.0;
  }
  [[nodiscard]] bool clean() const noexcept { return attempted > 0 && failed == 0; }
};

/// One completed span.  `parent` is the id of the enclosing span (0 = root);
/// `superstep` is the identifier shared by a superstep and all its children.
struct Span {
  std::string name;
  std::string cat;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t superstep = 0;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint64_t calls = 0;    ///< Calls the span aggregates (0 = not a call span).
  std::int64_t call_ns = 0;   ///< Time inside those calls.
};

/// Spans kept in memory and written once, at exit, as Chrome trace-event
/// JSON ("X" complete events; timestamps in microseconds since the first
/// span).
class SpanLog {
 public:
  /// Appends a span and returns its id (ids start at 1).
  std::uint64_t add(Span s);
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  void reserve(std::size_t n) { spans_.reserve(n); }
  [[nodiscard]] std::string chrome_json() const;
  /// Throws std::runtime_error when the file cannot be written.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Resident set size now, in bytes (from /proc/self/statm; 0 if unreadable).
[[nodiscard]] std::uint64_t rss_bytes();
/// Peak resident set size of the process so far, in bytes (getrusage).
[[nodiscard]] std::uint64_t peak_rss_bytes();
/// Threads of this process (from /proc/self/status; 0 if unreadable).
[[nodiscard]] int thread_count();
/// Threads of this process that have used at least `min_cpu_ticks` clock
/// ticks of CPU (from /proc/self/task/*/stat) — threads that did work, as
/// opposed to idle ones parked on a condition variable.
[[nodiscard]] int busy_thread_count(long min_cpu_ticks);

}  // namespace hostbench
