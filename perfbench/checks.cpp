#include "checks.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {

void CheckLog::fail(const std::string& what) {
  ++failures_;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

std::size_t verdict_errors(const Workload& w, const std::vector<core::Alert>& alerts,
                           CheckLog& log) {
  std::map<UnitKey, std::vector<const core::Alert*>> fired;
  for (const core::Alert& a : alerts) fired[unit_key(a)].push_back(&a);
  std::size_t errors = 0;
  for (const UnitTruth& u : w.units) {
    const auto it = fired.find(unit_key(u.meta));
    std::vector<const core::Alert*> found;
    if (it != fired.end()) {
      found = std::move(it->second);
      fired.erase(it);
    }
    const auto planted = [&](const core::Alert* a) { return a->threat == *u.threat; };
    const bool ok = u.threat ? std::any_of(found.begin(), found.end(), planted)
                             : found.empty();
    if (ok) continue;
    ++errors;
    std::string what =
        u.threat ? "attack unit (" + std::string(semantic::threat_class_name(*u.threat)) +
                       ") without an alert of its class"
                 : "benign unit with an alert";
    what += ", " + std::to_string(u.payload.size()) + " bytes";
    for (const core::Alert* a : found) what += "; " + a->str();
    std::fprintf(stderr, "perfbench: VERDICT ERROR: %s\n", what.c_str());
  }
  for (const auto& [key, stray] : fired) {
    log.fail("alert on a 4-tuple that is no unit: " + stray.front()->str());
  }
  return errors;
}

bool same_alerts(const std::vector<core::Alert>& a, const std::vector<core::Alert>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (core::alert_less(a[i], b[i]) || core::alert_less(b[i], a[i])) return false;
  }
  return true;
}

bool same_verdicts(std::vector<core::Alert> a, std::vector<core::Alert> b) {
  for (auto* v : {&a, &b}) {
    for (core::Alert& x : *v) x.ts_sec = 0;
    std::sort(v->begin(), v->end(), core::alert_less);
  }
  return same_alerts(a, b);
}

std::size_t check_report(const Workload& w, const core::Report& report,
                         const std::vector<core::Alert>* reference, CheckLog& log) {
  const core::NidsStats& s = report.stats;
  log.expect(s.packets == w.packets, "packets != generated frames");
  log.expect(s.stages[static_cast<std::size_t>(obs::Stage::kClassify)].count == s.packets,
             "stages[classify].count != packets");
  log.expect(s.units_analyzed == w.units.size(),
             "units_analyzed != generated units (" + std::to_string(s.units_analyzed) +
                 " vs " + std::to_string(w.units.size()) + ")");
  log.expect(s.triage_screened == s.triage_escalated + s.triage_rejected,
             "triage_screened != triage_escalated + triage_rejected");
  const std::size_t cached = s.cache_hits + s.cache_misses + s.cache_bypass;
  if (w.options.verdict_cache_bytes) {
    log.expect(cached == s.units_analyzed - s.triage_rejected,
               "cache hits + misses + bypass != units_analyzed - triage_rejected");
  } else {
    log.expect(cached == 0, "cache counters moved with the cache off");
  }
  if (w.options.triage.mode == triage::TriageMode::kOff) {
    log.expect(s.triage_screened == 0, "triage counters moved with triage off");
  } else {
    log.expect(s.triage_screened == s.units_analyzed,
               "triage_screened != units_analyzed");
  }
  if (reference) {
    log.expect(same_alerts(report.alerts, *reference), "alerts differ between runs");
  }
  return verdict_errors(w, report.alerts, log);
}

}  // namespace perfbench
