#include "traced.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <unordered_set>

#include "arch/arch.hpp"
#include "cache/sha256.hpp"
#include "cache/verdict_cache.hpp"
#include "classify/classifier.hpp"
#include "emu/shellemu.hpp"
#include "extract/extractor.hpp"
#include "net/defrag.hpp"
#include "net/flow.hpp"
#include "net/packet.hpp"
#include "net/reassembly.hpp"
#include "obs/metrics.hpp"
#include "semantic/analyzer.hpp"
#include "spans.hpp"
#include "triage/triage.hpp"

namespace perfbench {

namespace {

/// Spans kept whole for the trace file; totals cover every span.
constexpr std::size_t kStoredSpans = 300000;

/// Span name ids, interned once.
struct Names {
  std::uint16_t capture, pcap_parse, parse_frame, parse_reassembled, observe, defrag,
      reassembly, unit, screen, key, lookup, insert, extract, analyze, emulate, split,
      find_code_runs, linear_sweep, execution_trace, lift, match;
  explicit Names(SpanRecorder& r)
      : capture(r.intern("capture")),
        pcap_parse(r.intern("pcap.parse")),
        parse_frame(r.intern("net.parse_frame")),
        parse_reassembled(r.intern("net.parse_reassembled")),
        observe(r.intern("classify.observe_in")),
        defrag(r.intern("net.Defragmenter::feed")),
        reassembly(r.intern("net.TcpReassembler::feed")),
        unit(r.intern("unit")),
        screen(r.intern("triage.screen")),
        key(r.intern("cache.key")),
        lookup(r.intern("cache.lookup")),
        insert(r.intern("cache.insert")),
        extract(r.intern("extract.extract")),
        analyze(r.intern("semantic.analyze")),
        emulate(r.intern("emu.emulate_frame")),
        split(r.intern("split")),
        find_code_runs(r.intern("arch.find_code_runs")),
        linear_sweep(r.intern("arch.linear_sweep")),
        execution_trace(r.intern("arch.execution_trace")),
        lift(r.intern("ir.lift")),
        match(r.intern("semantic.match_template")) {}
};

/// Counters the traced pass keeps at the layer boundaries.
struct Counts {
  std::size_t packets = 0;
  std::size_t suspicious = 0;
  std::size_t units = 0;
  std::size_t frames = 0;  // logical: cache hits replay the stored count
  std::size_t screened = 0;
  std::size_t screened_bytes = 0;
  std::size_t escalated = 0;
  std::size_t escalated_alerting = 0;
  std::size_t hits = 0;
  std::size_t split_frames = 0;
  std::size_t split_runs = 0;
  std::size_t split_mismatches = 0;
  std::size_t detections = 0;
  std::size_t frames_emulated = 0;
  std::size_t emulated_steps = 0;
};

/// One pass over the capture that calls every layer itself, in the order
/// NidsEngine does for a single shard, with a span around each call.
class TracedPipeline {
 public:
  TracedPipeline(const Workload& w, const core::NidsEngine& engine, SpanRecorder& rec)
      : w_(w),
        engine_(engine),
        opt_(engine.options()),
        rec_(rec),
        n_(rec),
        classifier_(opt_.classifier),
        defrag_(opt_.defrag_max_buffered_bytes),
        extractor_(opt_.extractor),
        analyzer_(engine.analyzer().shared_templates(), opt_.analyzer) {
    for (net::Ipv4Addr ip : w.honeypots) classifier_.honeypots().add_decoy(ip);
    for (const classify::Prefix& p : w.dark) {
      classifier_.dark_space().add_unused_prefix(p);
    }
    state_ = classifier_.make_state();
    if (opt_.verdict_cache_bytes) {
      cache_ = std::make_unique<cache::VerdictCache>(
          cache::VerdictCache::Options{opt_.verdict_cache_bytes, 16});
    }
  }

  /// Returns the sorted alerts of the pass.
  std::vector<core::Alert> run() {
    auto root = rec_.span(n_.capture);
    std::optional<pcap::Capture> capture;
    {
      auto s = rec_.span(n_.pcap_parse);
      capture = pcap::parse(w_.pcap_bytes);
    }
    if (!capture) return {};
    for (const pcap::Record& r : capture->records) record(r);
    flows_.drain([this](const net::FlowKey&, Flow& f) { flush(f); });
    std::sort(alerts_.begin(), alerts_.end(), core::alert_less);
    return std::move(alerts_);
  }

  [[nodiscard]] const Counts& counts() const noexcept { return c_; }
  [[nodiscard]] const semantic::AnalyzerStats& analyzer_stats() const noexcept {
    return astats_;
  }
  [[nodiscard]] const Names& names() const noexcept { return n_; }

 private:
  struct Flow {
    net::TcpReassembler reassembler;
    core::Alert meta;
    explicit Flow(std::size_t cap) : reassembler(cap, cap) {}
  };

  void record(const pcap::Record& r) {
    ++c_.packets;
    std::optional<net::ParsedPacket> pkt;
    {
      auto s = rec_.span(n_.parse_frame);
      pkt = net::parse_frame(r.data, r.ts_sec, r.ts_usec);
    }
    if (!pkt) return;
    classify::Verdict verdict;
    {
      auto s = rec_.span(n_.observe);
      verdict = classifier_.observe_in(state_, *pkt);
    }
    if (pkt->transport == net::Transport::kFragment) {
      std::optional<net::ReassembledDatagram> datagram;
      {
        auto s = rec_.span(n_.defrag);
        datagram = defrag_.feed(pkt->ip, pkt->payload);
      }
      if (!datagram) return;
      {
        auto s = rec_.span(n_.parse_reassembled);
        pkt = net::parse_reassembled(datagram->header, datagram->payload, pkt->ts_sec,
                                     pkt->ts_usec);
      }
      if (!pkt || classifier_.check_in(state_, *pkt) != classify::Verdict::kAnalyze) {
        return;
      }
    } else if (verdict != classify::Verdict::kAnalyze) {
      return;
    }
    ++c_.suspicious;
    dispatch(*pkt);
  }

  void dispatch(net::ParsedPacket& pkt) {
    core::Alert meta;
    meta.ts_sec = pkt.ts_sec;
    meta.src = pkt.ip.src;
    meta.dst = pkt.ip.dst;
    meta.src_port = pkt.src_port();
    meta.dst_port = pkt.dst_port();
    if (pkt.transport == net::Transport::kTcp && opt_.reassemble_tcp) {
      const net::FlowKey key = net::FlowKey::of(pkt);
      auto [flow, created] = flows_.touch(key, pkt.ts_sec, opt_.max_stream_bytes);
      if (created) flow->meta = meta;
      {
        auto s = rec_.span(n_.reassembly);
        flow->reassembler.feed(pkt.tcp.seq, pkt.tcp.flags, pkt.payload);
      }
      if (flow->reassembler.closed() || flow->reassembler.truncated() ||
          flow->reassembler.stream().size() >= opt_.max_stream_bytes) {
        flush(*flow);
        flows_.erase(key);
      }
    } else if (!pkt.payload.empty()) {
      analyze_unit(pkt.payload, meta);
    }
  }

  void flush(Flow& f) {
    const util::Bytes stream = f.reassembler.take_stream();
    if (!stream.empty()) analyze_unit(stream, f.meta);
  }

  /// Stages 0 and (b)-(e) for one unit, as NidsEngine::analyze_payload
  /// runs them.
  void analyze_unit(util::ByteView payload, const core::Alert& meta) {
    const auto unit_id = static_cast<std::uint32_t>(++c_.units);
    auto unit_span = rec_.span(n_.unit, unit_id);

    if (const triage::TriageFilter* triage = engine_.triage_filter()) {
      triage::TriageDecision decision;
      {
        auto s = rec_.span(n_.screen, unit_id);
        decision = triage->screen(payload, meta.dst_port);
      }
      ++c_.screened;
      c_.screened_bytes += payload.size();
      if (!decision.escalate) return;
      ++c_.escalated;
    }

    const bool cacheable = cache_ && payload.size() <= opt_.cache_max_unit_bytes;
    cache::Digest key{};
    if (cacheable) {
      {
        auto s = rec_.span(n_.key, unit_id);
        cache::Sha256 ctx;
        const cache::Digest& fp = engine_.config_fingerprint();
        ctx.update(fp.data(), fp.size());
        ctx.update(payload);
        key = ctx.finish();
      }
      std::optional<cache::Verdict> hit;
      {
        auto s = rec_.span(n_.lookup, unit_id);
        hit = cache_->lookup(key);
      }
      if (hit) {
        ++c_.hits;
        c_.frames += hit->frames_extracted;
        for (const cache::CachedAlert& ca : hit->alerts) {
          core::Alert a = meta;
          a.threat = ca.threat;
          a.template_name = ca.template_name;
          a.frame_reason = ca.frame_reason;
          a.frame_offset = ca.frame_offset;
          alerts_.push_back(std::move(a));
        }
        if (!hit->alerts.empty() && engine_.triage_filter()) ++c_.escalated_alerting;
        return;
      }
    }

    {
      auto s = rec_.span(n_.extract, unit_id);
      extractor_.extract(payload, frames_);
    }
    c_.frames += frames_.size();
    std::vector<core::Alert> found;
    fired_.clear();
    auto add = [&](semantic::ThreatClass threat, std::string name,
                   extract::FrameReason reason, std::size_t offset) {
      if (!fired_.insert(name).second) return;
      core::Alert a = meta;
      a.threat = threat;
      a.template_name = std::move(name);
      a.frame_reason = reason;
      a.frame_offset = offset;
      found.push_back(std::move(a));
    };
    std::uint64_t bytes_analyzed = 0;
    for (const extract::BinaryFrame& frame : frames_) {
      bytes_analyzed += frame.data.size();
      for (semantic::Detection& d : analyze(frame.data, unit_id)) {
        add(d.threat, std::move(d.template_name), frame.reason, frame.src_offset);
      }
    }
    std::uint64_t frames_emulated = 0, steps = 0;
    if (opt_.enable_emulation) {
      for (const extract::BinaryFrame& frame : frames_) {
        emu::EmulationResult r;
        {
          auto s = rec_.span(n_.emulate, unit_id);
          r = emu::emulate_frame(frame.data, opt_.emulator);
        }
        ++frames_emulated;
        steps += r.steps;
        if (r.spawned_shell()) {
          add(semantic::ThreatClass::kShellSpawn, "emulated:spawned-shell",
              extract::FrameReason::kEmulatedBehavior, frame.src_offset);
        }
        if (r.bound_port()) {
          add(semantic::ThreatClass::kPortBindShell, "emulated:bound-port",
              extract::FrameReason::kEmulatedBehavior, frame.src_offset);
        }
        if (!r.decoded_frame.empty()) {
          for (semantic::Detection& d : analyze(r.decoded_frame, unit_id)) {
            add(d.threat, std::move(d.template_name),
                extract::FrameReason::kEmulatedDecode, frame.src_offset);
          }
        }
      }
    }
    c_.frames_emulated += frames_emulated;
    c_.emulated_steps += steps;
    if (!found.empty() && engine_.triage_filter()) ++c_.escalated_alerting;

    if (cacheable) {
      cache::Verdict v;
      for (const core::Alert& a : found) {
        v.alerts.push_back(cache::CachedAlert{a.threat, a.template_name, a.frame_reason,
                                              a.frame_offset});
      }
      v.frames_extracted = frames_.size();
      v.bytes_analyzed = bytes_analyzed;
      v.frames_emulated = frames_emulated;
      v.emulated_steps = steps;
      auto s = rec_.span(n_.insert, unit_id);
      cache_->insert(key, std::move(v));
    }
    alerts_.insert(alerts_.end(), std::make_move_iterator(found.begin()),
                   std::make_move_iterator(found.end()));
  }

  /// SemanticAnalyzer::analyze on one frame, then the same frame once
  /// more through the arch/ir/semantic calls analyze makes internally,
  /// in a "split" span beside it, so their costs can be told apart.
  std::vector<semantic::Detection> analyze(util::ByteView frame, std::uint32_t unit_id) {
    std::vector<semantic::Detection> dets;
    {
      auto s = rec_.span(n_.analyze, unit_id);
      dets = analyzer_.analyze(frame, &astats_, scratch_);
    }
    c_.detections += dets.size();
    std::set<std::string> names;
    {
      auto s = rec_.span(n_.split, unit_id);
      names = split(frame, unit_id);
    }
    std::set<std::string> expected;
    for (const semantic::Detection& d : dets) expected.insert(d.template_name);
    if (names != expected) ++c_.split_mismatches;
    return dets;
  }

  /// The body of SemanticAnalyzer::analyze through public calls: code-run
  /// scan, entry collection, then per entry trace, lift and a match
  /// against every template not yet fired. Returns the templates fired.
  std::set<std::string> split(util::ByteView frame, std::uint32_t unit_id) {
    std::set<std::string> fired;
    if (frame.empty()) return fired;
    ++c_.split_frames;
    const semantic::SemanticAnalyzer::Options& ao = analyzer_.options();
    const arch::Arch& isa = ao.arch ? *ao.arch : arch::Arch::x86_32();
    const std::vector<semantic::Template>& templates = analyzer_.templates();
    {
      auto s = rec_.span(n_.find_code_runs, unit_id);
      isa.find_code_runs(frame, ao.min_run_insns, runs_, split_scan_);
    }
    c_.split_runs += runs_.size();
    std::stable_sort(runs_.begin(), runs_.end(),
                     [](const arch::CodeRun& a, const arch::CodeRun& b) {
                       return a.insn_count > b.insn_count;
                     });
    std::vector<std::size_t> entries;
    std::vector<char> seen(frame.size(), 0);
    auto add_entry = [&](std::size_t off) {
      if (off >= frame.size() || seen[off]) return;
      seen[off] = 1;
      if (entries.size() < ao.max_entries) entries.push_back(off);
    };
    for (const arch::CodeRun& run : runs_) {
      if (entries.size() >= ao.max_entries) break;
      add_entry(run.start);
      {
        auto s = rec_.span(n_.linear_sweep, unit_id);
        isa.linear_sweep(frame, run.start, ao.max_trace_insns, sweep_);
      }
      for (const arch::Instruction& insn : sweep_) {
        if (auto target = insn.branch_target(); target && *target < insn.offset) {
          add_entry(*target);
        }
        if (insn.mnemonic == arch::Mnemonic::kCall) add_entry(insn.end_offset());
      }
    }
    std::vector<char> done(templates.size(), 0);
    std::size_t budget = ao.max_total_insns;
    for (std::size_t entry : entries) {
      if (fired.size() == templates.size() || budget == 0) break;
      {
        auto s = rec_.span(n_.execution_trace, unit_id);
        isa.execution_trace(frame, entry, std::min(ao.max_trace_insns, budget), trace_,
                            split_scan_);
      }
      if (trace_.size() < ao.min_run_insns) continue;
      budget -= std::min(budget, trace_.size());
      {
        auto s = rec_.span(n_.lift, unit_id);
        ir::lift(trace_, lifted_);
      }
      auto s = rec_.span(n_.match, unit_id);
      const semantic::LiftedCode code{&trace_, &lifted_.events, frame};
      for (std::size_t ti = 0; ti < templates.size(); ++ti) {
        if (done[ti]) continue;
        if (semantic::match_template(templates[ti], code)) {
          done[ti] = 1;
          fired.insert(templates[ti].name);
        }
      }
    }
    return fired;
  }

  const Workload& w_;
  const core::NidsEngine& engine_;
  const core::NidsOptions& opt_;
  SpanRecorder& rec_;
  Names n_;
  Counts c_;
  classify::TrafficClassifier classifier_;
  classify::ClassifierState state_;
  net::Defragmenter defrag_;
  net::BoundedFlowTable<Flow> flows_;
  std::unique_ptr<cache::VerdictCache> cache_;
  extract::BinaryExtractor extractor_;
  semantic::SemanticAnalyzer analyzer_;
  semantic::AnalyzerScratch scratch_;
  semantic::AnalyzerStats astats_;
  std::vector<extract::BinaryFrame> frames_;
  std::unordered_set<std::string> fired_;
  std::vector<core::Alert> alerts_;
  // Working memory of the split calls.
  arch::ScanScratch split_scan_;
  std::vector<arch::CodeRun> runs_;
  std::vector<arch::Instruction> sweep_;
  std::vector<arch::Instruction> trace_;
  ir::LiftResult lifted_;
};

/// One untraced pass: parse + process_capture on a fresh engine.
struct Pass {
  core::Report report;
  double wall = 0.0;
};

Pass untraced_pass(const Workload& w) {
  core::NidsEngine engine = make_engine(w);
  const Clock::time_point t0 = Clock::now();
  auto capture = pcap::parse(w.pcap_bytes);
  Pass p;
  if (capture) p.report = engine.process_capture(*capture);
  p.wall = seconds_between(t0, Clock::now());
  return p;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

RunResult run_traced(const Workload& w, double seconds, const std::string& trace_out,
                     CheckLog& log) {
  RunResult out;
  const core::NidsOptions& o = w.options;
  log.expect(!o.confirm_decoders_by_emulation && o.flow_idle_timeout_sec == 0 &&
                 o.max_flows == 0 && o.shards <= 1,
             "traced run does not mirror this option set");

  // Untraced reference passes: the same-work baseline, the untraced wall,
  // and the engine's own stage-(a) and parallel-efficiency figures.
  std::vector<double> walls, stage_a, efficiency;
  core::Report reference;
  for (int i = 0; i < 3; ++i) {
    Pass p = untraced_pass(w);
    check_report(w, p.report, i ? &reference.alerts : nullptr, log);
    walls.push_back(p.wall);
    stage_a.push_back(p.report.stats.classify_seconds);
    const auto threads = static_cast<double>(std::max<std::size_t>(1, w.options.threads));
    efficiency.push_back(ratio(p.report.stats.analysis_seconds, p.wall * threads));
    if (i == 0) reference = std::move(p.report);
  }
  out.attempted = reference.stats.units_analyzed;
  const double untraced_wall = median(walls);

  // The traced pass.
  SpanRecorder rec(kStoredSpans);
  const core::NidsEngine engine = make_engine(w);
  TracedPipeline pipeline(w, engine, rec);
  const Clock::time_point t0 = Clock::now();
  const std::vector<core::Alert> alerts = pipeline.run();
  const double traced_wall = seconds_between(t0, Clock::now());
  const Counts& c = pipeline.counts();
  const Names& n = pipeline.names();
  const semantic::AnalyzerStats& as = pipeline.analyzer_stats();

  // Same-work check: the traced pass must have done what process_capture did.
  const core::NidsStats& rs = reference.stats;
  log.expect(c.units == rs.units_analyzed,
             "same-work: traced units " + std::to_string(c.units) +
                 " != units_analyzed " + std::to_string(rs.units_analyzed));
  log.expect(c.frames == rs.frames_extracted,
             "same-work: traced frames " + std::to_string(c.frames) +
                 " != frames_extracted " + std::to_string(rs.frames_extracted));
  log.expect(same_alerts(alerts, reference.alerts), "same-work: traced alerts differ");
  log.expect(c.suspicious == rs.suspicious_packets,
             "same-work: traced suspicious packets differ");
  log.expect(c.split_mismatches == 0,
             "split calls fired other templates than analyze on " +
                 std::to_string(c.split_mismatches) + " frame(s)");
  out.failed = verdict_errors(w, alerts, log);

  // Telemetry cost: interleaved metrics-on/off pairs, alternating which
  // side runs first; the ratio is throughput off / on, i.e. wall on / off.
  std::vector<double> obs_ratios;
  const Clock::time_point pairs_start = Clock::now();
  while (obs_ratios.size() < 3 || seconds_between(pairs_start, Clock::now()) < seconds) {
    const bool off_first = obs_ratios.size() % 2 == 1;
    double on = 0, off = 0;
    for (int side = 0; side < 2; ++side) {
      const bool metrics = (side == 0) != off_first;
      obs::set_metrics_enabled(metrics);
      Pass p = untraced_pass(w);
      obs::set_metrics_enabled(true);
      check_report(w, p.report, &reference.alerts, log);
      (metrics ? on : off) = p.wall;
    }
    obs_ratios.push_back(ratio(on, off));
  }

  const double split_s = rec.seconds(n.split);
  const double split_sum = rec.seconds(n.find_code_runs) + rec.seconds(n.linear_sweep) +
                           rec.seconds(n.execution_trace) + rec.seconds(n.lift) +
                           rec.seconds(n.match);
  const double cache_lookups =
      static_cast<double>(rs.cache_hits + rs.cache_misses + rs.cache_bypass);
  const auto d = [](std::size_t v) { return static_cast<double>(v); };

  std::printf("# workload %s seed %llu: %zu packets (%zu fragments), %zu units, "
              "%zu frames\n",
              w.name.c_str(), static_cast<unsigned long long>(w.seed), c.packets,
              w.fragment_frames, c.units, c.frames);
  const bool same_work = c.units == rs.units_analyzed &&
                         c.frames == rs.frames_extracted &&
                         same_alerts(alerts, reference.alerts);
  std::printf("# same-work check: units %zu/%zu frames %zu/%zu alerts %zu/%zu -> %s\n",
              c.units, rs.units_analyzed, c.frames, rs.frames_extracted, alerts.size(),
              reference.alerts.size(), same_work ? "PASS" : "FAIL");
  std::printf("# semantic.analyze %.4f s | split %.4f s (calls %.4f s: scan %.4f "
              "sweep %.4f trace %.4f lift %.4f match %.4f) | AnalyzerStats disasm %.4f "
              "lift %.4f match %.4f s\n",
              rec.seconds(n.analyze), split_s, split_sum, rec.seconds(n.find_code_runs),
              rec.seconds(n.linear_sweep), rec.seconds(n.execution_trace),
              rec.seconds(n.lift), rec.seconds(n.match), as.disasm_seconds,
              as.lift_seconds, as.match_seconds);
  std::printf("# cache: %zu hits %zu misses %zu bypass in the engine run "
              "(base %.0f lookups)\n",
              rs.cache_hits, rs.cache_misses, rs.cache_bypass, cache_lookups);
  std::printf("# %-28s %10s %12s %12s %12s\n", "span", "calls", "total ms", "self ms",
              "mean us");
  for (std::size_t i = 0; i < rec.names().size(); ++i) {
    const auto id = static_cast<std::uint16_t>(i);
    const SpanRecorder::Totals& t = rec.totals(id);
    std::printf("# %-28s %10llu %12.3f %12.3f %12.3f\n", rec.names()[i].c_str(),
                static_cast<unsigned long long>(t.count),
                static_cast<double>(t.total_ns) * 1e-6,
                static_cast<double>(t.self_ns) * 1e-6, rec.mean(id, 1e6));
  }
  std::printf("# spans: %llu recorded, %zu stored\n",
              static_cast<unsigned long long>(rec.recorded()), rec.stored());
  if (!trace_out.empty()) {
    log.expect(rec.write_chrome_trace(trace_out), "cannot write trace file " + trace_out);
    std::printf("# trace written to %s\n", trace_out.c_str());
  }

  const double pcap_s = rec.seconds(n.pcap_parse);
  const double frames_analyzed = d(as.frames);
  out.metrics = {
      {"pcap.parse_mb_s", ratio(d(w.pcap_bytes.size()) / 1e6, pcap_s), "MB/s"},
      {"net.parse_ns_per_pkt", rec.mean(n.parse_frame, 1e9), "ns"},
      {"net.reassembly_ns_per_seg", rec.mean(n.reassembly, 1e9), "ns"},
      {"net.defrag_ns_per_frag", rec.mean(n.defrag, 1e9), "ns"},
      {"classify.observe_ns_per_pkt", rec.mean(n.observe, 1e9), "ns"},
      {"classify.suspicious_ratio", ratio(d(c.suspicious), d(c.packets)), "ratio"},
      {"triage.screen_mb_s", ratio(d(c.screened_bytes) / 1e6, rec.seconds(n.screen)),
       "MB/s"},
      {"triage.escalation_ratio", ratio(d(c.escalated), d(c.screened)), "ratio"},
      {"triage.useful_escalation_ratio", ratio(d(c.escalated_alerting), d(c.escalated)),
       "ratio"},
      {"cache.key_us_per_unit", rec.mean(n.key, 1e6), "us"},
      {"cache.lookup_ns", rec.mean(n.lookup, 1e9), "ns"},
      {"cache.hit_ratio", ratio(d(rs.cache_hits), cache_lookups), "ratio"},
      {"cache.lookups", cache_lookups, "count"},
      {"extract.us_per_unit", rec.mean(n.extract, 1e6), "us"},
      {"extract.frames_per_unit", ratio(d(c.frames), d(rec.count(n.extract) + c.hits)),
       "count"},
      {"arch.scan_us_per_frame", rec.mean(n.find_code_runs, 1e6), "us"},
      {"arch.runs_per_frame", ratio(d(c.split_runs), d(c.split_frames)), "count"},
      {"arch.trace_us_per_entry", rec.mean(n.execution_trace, 1e6), "us"},
      {"arch.insns_per_trace", ratio(d(as.instructions_lifted), d(as.traces)), "count"},
      {"ir.lift_us_per_trace", rec.mean(n.lift, 1e6), "us"},
      {"semantic.analyze_us_per_frame", rec.mean(n.analyze, 1e6), "us"},
      {"semantic.match_us_per_trace", rec.mean(n.match, 1e6), "us"},
      {"semantic.frames", frames_analyzed, "count"},
      {"semantic.templates_tried_per_frame",
       ratio(d(as.template_matches_tried), frames_analyzed), "count"},
      {"semantic.detections_per_tried",
       ratio(d(c.detections), d(as.template_matches_tried)), "ratio"},
      {"semantic.budget_exhausted",
       d(as.entry_budget_exhausted + as.insn_budget_exhausted), "count"},
      {"emu.emulate_us_per_frame", rec.mean(n.emulate, 1e6), "us"},
      {"emu.steps_per_frame", ratio(d(c.emulated_steps), d(c.frames_emulated)), "count"},
      {"core.stage_a_s", median(stage_a), "s"},
      {"core.parallel_efficiency", median(efficiency), "ratio"},
      {"obs.metrics_overhead_ratio", median(obs_ratios), "ratio"},
      {"bench.trace_overhead_ratio", ratio(traced_wall - split_s, untraced_wall),
       "ratio"},
      {"bench.units", d(c.units), "count"},
      {"bench.packets", d(c.packets), "count"},
  };
  return out;
}

}  // namespace perfbench
