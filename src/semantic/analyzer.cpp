#include "semantic/analyzer.hpp"

#include <algorithm>
#include <chrono>

#include "ir/lifter.hpp"
#include "obs/metrics.hpp"
#include "arch/arch.hpp"
#include "arch/scan.hpp"

namespace senids::semantic {

namespace {

/// Accumulating stopwatch that reads the clock only while metrics are on.
class StageClock {
 public:
  explicit StageClock(bool active) : active_(active) {}
  void start() noexcept {
    if (active_) t0_ = std::chrono::steady_clock::now();
  }
  void stop(double& into) noexcept {
    if (active_) {
      into += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
    }
  }

 private:
  bool active_;
  std::chrono::steady_clock::time_point t0_{};
};

std::shared_ptr<const std::vector<CompiledTemplate>> compile_all(
    const std::vector<Template>& templates) {
  auto compiled = std::make_shared<std::vector<CompiledTemplate>>();
  compiled->reserve(templates.size());
  for (const Template& t : templates) compiled->push_back(compile_template(t));
  return compiled;
}

}  // namespace

SemanticAnalyzer::SemanticAnalyzer(std::vector<Template> templates, Options options)
    : SemanticAnalyzer(
          std::make_shared<const std::vector<Template>>(std::move(templates)),
          std::move(options)) {}

SemanticAnalyzer::SemanticAnalyzer(std::shared_ptr<const std::vector<Template>> templates,
                                   Options options)
    : templates_(std::move(templates)),
      compiled_(compile_all(*templates_)),
      options_(std::move(options)) {}

std::vector<Detection> SemanticAnalyzer::analyze(util::ByteView frame,
                                                 AnalyzerStats* stats) const {
  AnalyzerScratch scratch;
  return analyze(frame, stats, scratch);
}

std::vector<Detection> SemanticAnalyzer::analyze(util::ByteView frame, AnalyzerStats* stats,
                                                 AnalyzerScratch& scratch) const {
  const std::vector<Template>& templates = *templates_;
  const std::vector<CompiledTemplate>& compiled = *compiled_;
  const arch::Arch& isa = options_.arch ? *options_.arch : arch::Arch::x86_32();
  std::vector<Detection> detections;
  if (frame.empty()) return detections;
  StageClock clock(obs::metrics_enabled());

  // 1. Candidate entry points: starts of maximal decode runs, plus the
  //    targets of backward branches inside them (loop heads — needed when
  //    a run begins inside an already-unrolled loop body).
  clock.start();
  std::vector<std::size_t>& entries = scratch.entries;
  entries.clear();
  std::vector<arch::CodeRun>& runs = scratch.runs;
  // The scanner ranks runs longest first, so a large frame cannot
  // exhaust the entry budget on noise before reaching the payload.
  isa.find_code_runs(frame, options_.min_run_insns, runs, scratch.scan);
  std::vector<char>& seen = scratch.entry_seen;
  seen.assign(frame.size(), 0);
  bool entry_budget_hit = false;
  auto add_entry = [&](std::size_t off) {
    if (off >= frame.size() || seen[off]) return;
    seen[off] = 1;
    if (entries.size() >= options_.max_entries) {
      entry_budget_hit = true;
      return;
    }
    entries.push_back(off);
  };
  // Walk each run's linear decode through the scanner's per-offset facts
  // (the same instructions, in the same order and under the same cap, as
  // a fresh linear sweep from the run start).
  const auto& next = scratch.scan.next;
  const auto& back_target = scratch.scan.back_target;
  const auto& is_call = scratch.scan.is_call;
  for (const auto& run : runs) {
    if (entries.size() >= options_.max_entries) break;
    add_entry(run.start);
    std::size_t pos = run.start;
    for (std::size_t k = 0;
         k < options_.max_trace_insns && pos < frame.size() && next[pos] != 0; ++k) {
      if (back_target[pos]) add_entry(back_target[pos] - 1);
      // The byte after a call is the classic GetPC data/payload location;
      // once a decoder has been unrolled (or emulated away) it is also
      // where the real payload's code begins.
      if (is_call[pos]) add_entry(next[pos]);
      pos = next[pos];
    }
  }
  double disasm_seconds = 0.0;
  clock.stop(disasm_seconds);

  // 2. Trace + lift + match. Stop trying a template once it has fired on
  //    this frame (one detection per template per frame).
  double lift_seconds = 0.0;
  double match_seconds = 0.0;
  bool insn_budget_hit = false;
  std::size_t traces = 0;
  std::size_t insns_lifted = 0;
  std::size_t matches_tried = 0;
  std::size_t kind_skipped = 0;
  std::vector<char>& fired = scratch.fired;
  fired.assign(templates.size(), 0);
  std::size_t fired_count = 0;
  std::size_t lifted_budget = options_.max_total_insns;
  std::vector<arch::Instruction>& trace = scratch.trace;
  ir::LiftResult& lifted = scratch.lifted;
  TraceMatcher& matcher = scratch.matcher;
  for (std::size_t entry : entries) {
    if (fired_count == templates.size()) break;
    if (lifted_budget == 0) {  // per-frame work cap reached
      insn_budget_hit = true;
      break;
    }
    clock.start();
    isa.execution_trace(frame, entry, std::min(options_.max_trace_insns, lifted_budget),
                        trace, scratch.scan);
    clock.stop(disasm_seconds);
    if (trace.size() < options_.min_run_insns) continue;
    lifted_budget -= std::min(lifted_budget, trace.size());
    ++traces;
    insns_lifted += trace.size();
    clock.start();
    ir::lift(trace, lifted);
    clock.stop(lift_seconds);
    if (options_.post_lift_hook) options_.post_lift_hook(trace, lifted);
    const LiftedCode code{&trace, &lifted.events, frame, lifted.arena.get()};
    clock.start();
    matcher.reset(code);
    for (std::size_t ti = 0; ti < templates.size(); ++ti) {
      if (fired[ti]) continue;
      ++matches_tried;
      if (!matcher.may_match(compiled[ti])) {
        ++kind_skipped;
        continue;
      }
      if (auto m = matcher.match(compiled[ti])) {
        const Template& t = templates[ti];
        fired[ti] = 1;
        ++fired_count;
        Detection d;
        d.template_name = t.name;
        d.threat = t.threat;
        d.entry_offset = entry;
        d.match_offset = m->start_offset;
        d.bindings = std::move(m->bindings);
        d.arena = std::move(m->arena);
        detections.push_back(std::move(d));
      }
    }
    clock.stop(match_seconds);
  }

  if (stats) {
    ++stats->frames;
    stats->candidate_runs += runs.size();
    stats->traces += traces;
    stats->instructions_lifted += insns_lifted;
    stats->template_matches_tried += matches_tried;
    stats->templates_kind_skipped += kind_skipped;
    if (entry_budget_hit) ++stats->entry_budget_exhausted;
    if (insn_budget_hit) ++stats->insn_budget_exhausted;
    stats->disasm_seconds += disasm_seconds;
    stats->lift_seconds += lift_seconds;
    stats->match_seconds += match_seconds;
  }
  return detections;
}

}  // namespace senids::semantic
