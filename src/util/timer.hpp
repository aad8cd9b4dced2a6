// Wall-clock timing: the stopwatch the bench harnesses use to report the
// same per-sample running times the paper tabulates, and the steady-clock
// helper the pipeline's per-stage clocks share.
#pragma once

#include <chrono>

namespace senids::util {

/// Seconds elapsed on the steady clock since `start`.
inline double seconds_since(std::chrono::steady_clock::time_point start) noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

class WallTimer {
 public:
  WallTimer() noexcept : start_(Clock::now()) {}

  void reset() noexcept { start_ = Clock::now(); }

  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  [[nodiscard]] double millis() const noexcept { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace senids::util
