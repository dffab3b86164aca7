#include "ledger.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "telemetry/json.hpp"

namespace hostbench {

namespace {

/// 1-based nearest rank of the q-th percentile among n samples.
std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t k = nearest_rank(samples.size(), q) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

std::uint64_t SpanLog::add(Span s) {
  s.id = spans_.size() + 1;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::string SpanLog::chrome_json() const {
  using simtmsg::telemetry::Json;
  std::int64_t origin = 0;
  if (!spans_.empty()) {
    origin = std::min_element(spans_.begin(), spans_.end(), [](const Span& a, const Span& b) {
               return a.start_ns < b.start_ns;
             })->start_ns;
  }
  Json events = Json::array();
  for (const Span& s : spans_) {
    Json args = Json::object();
    args.set("id", s.id);
    args.set("parent", s.parent);
    args.set("superstep", s.superstep);
    if (s.calls > 0) {
      args.set("calls", s.calls);
      args.set("call_ns", static_cast<std::int64_t>(s.call_ns));
    }
    Json e = Json::object();
    e.set("name", s.name);
    e.set("cat", s.cat);
    e.set("ph", "X");
    e.set("ts", static_cast<double>(s.start_ns - origin) / 1e3);
    e.set("dur", static_cast<double>(s.dur_ns) / 1e3);
    e.set("pid", 1);
    e.set("tid", 1);
    e.set("args", std::move(args));
    events.push(std::move(e));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  return doc.dump(-1);
}

void SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  out << chrome_json() << '\n';
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

std::uint64_t rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  if (!(statm >> size >> resident)) return 0;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

std::uint64_t peak_rss_bytes() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // Linux: KiB.
}

int thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      std::istringstream fields(line.substr(8));
      int n = 0;
      fields >> n;
      return n;
    }
  }
  return 0;
}

int busy_thread_count(long min_cpu_ticks) {
  int busy = 0;
  std::error_code ec;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task", ec)) {
    std::ifstream stat(task.path() / "stat");
    std::string line;
    if (!std::getline(stat, line)) continue;
    // Fields after the parenthesised command name: state is field 3, utime
    // field 14 and stime field 15 of proc(5).
    std::istringstream fields(line.substr(line.rfind(')') + 1));
    std::string field;
    long utime = 0, stime = 0;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i == 14) utime = std::stol(field);
      if (i == 15) stime = std::stol(field);
    }
    if (utime + stime >= min_cpu_ticks) ++busy;
  }
  return busy;
}

}  // namespace hostbench
