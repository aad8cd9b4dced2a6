// Small measurement helpers: quantiles, a steady clock, resident-memory
// readings, and the metric list a run prints as its last line.
#pragma once

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank quantile of `v` (copied; q in [0, 1]). 0 for an empty set.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// A field of /proc/self/status in kB (VmRSS, VmHWM); -1 when unreadable.
long proc_status_kb(const char* field);

/// Reset the resident high-water mark (VmHWM) to the current resident
/// size. False when the kernel refuses.
bool reset_peak_rss();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run reports: its metrics, the units it checked and how many of
/// them got a wrong verdict.
struct RunResult {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// Print the run's result object as one JSON line.
void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics);

}  // namespace perfbench
