// Output checks shared by the timed and the traced run. A failed check
// fails the run: it is recorded in a CheckLog and the run reports
// "correct": false, never a number that hides it. A unit whose verdict
// disagrees with the ground truth is a failed operation instead: it is
// counted in the result's "failed" (the verdict error ratio is failed ÷
// attempted) and printed on stderr.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Collects failed checks; prints each one to stderr as it happens.
class CheckLog {
 public:
  void fail(const std::string& what);
  void expect(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  [[nodiscard]] bool ok() const noexcept { return failures_ == 0; }
  [[nodiscard]] std::size_t failures() const noexcept { return failures_; }

 private:
  std::size_t failures_ = 0;
};

/// Units whose alerts disagree with the ground truth: an attack unit with
/// no alert of its planted class, or a benign unit with any alert. Each
/// is printed on stderr. An alert on a 4-tuple that is no unit fails
/// the check.
std::size_t verdict_errors(const Workload& w, const std::vector<core::Alert>& alerts,
                           CheckLog& log);

/// Field-by-field equality of two sorted alert lists.
bool same_alerts(const std::vector<core::Alert>& a, const std::vector<core::Alert>& b);

/// The same alerts up to timestamps: analyze_payload is called with the
/// ground truth's unit metadata, which carries no capture time.
bool same_verdicts(std::vector<core::Alert> a, std::vector<core::Alert> b);

/// Every check a process_capture Report must pass: the NidsStats
/// identities, the packet and unit counts the generator planted, and
/// alerts equal to `reference` (the run's first report) when given.
/// Returns the report's verdict error count (see verdict_errors).
std::size_t check_report(const Workload& w, const core::Report& report,
                         const std::vector<core::Alert>* reference, CheckLog& log);

}  // namespace perfbench
