// Table 3 reproduction: Code Red II detection in production-like traces.
// Twelve 5-minute traces are synthesized with benign web/DNS/SMTP
// background and a known number of planted CRII exploitation flows per
// trace; the NIDS must classify and match every instance. The paper's
// traces carry >200k packets each; default scale is reduced for CI speed
// (SENIDS_SCALE=paper restores it).
#include <cstdio>

#include "bench_util.hpp"
#include "core/senids.hpp"
#include "gen/benign.hpp"
#include "gen/codered.hpp"
#include "gen/traffic.hpp"
#include "obs/pipeline.hpp"
#include "util/timer.hpp"

using namespace senids;

namespace {

/// The verdict-cache acceptance workload: CRII spreads by flooding the
/// byte-identical request at every host, so a replay-heavy capture is
/// the worm's own traffic shape. Measures the analysis stages cache-off
/// vs cache-on over N identical exploit flows; the cache must deliver
/// >= 5x analysis-stage throughput at a >= 90% hit rate.
bool run_replay_phase(bench::JsonReport& json) {
  bench::section("verdict cache: repeated-payload replay (identical CRII flows)");

  const std::size_t flows =
      bench::env_size("SENIDS_REPLAY_FLOWS", bench::paper_scale() ? 2000 : 300);
  const net::Ipv4Addr server = net::Ipv4Addr::from_octets(10, 1, 0, 20);

  gen::TraceBuilder tb(9100);
  const util::Bytes request = gen::make_code_red_ii_request();
  for (std::size_t i = 0; i < flows; ++i) {
    const net::Endpoint infected{
        net::Ipv4Addr::from_octets(203, 0, static_cast<std::uint8_t>(113 + i / 250),
                                   static_cast<std::uint8_t>(1 + i % 250)),
        static_cast<std::uint16_t>(4000 + i % 20000)};
    tb.add_tcp_flow(infected, net::Endpoint{server, 80}, request);
  }
  const pcap::Capture capture = tb.take();

  // senids_unit_seconds feeds the p95 column; reset it per run so each
  // snapshot covers exactly one engine's units.
  const bool metrics_were_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::PipelineMetrics& pm = obs::pipeline_metrics();

  auto run = [&](std::size_t cache_bytes, core::Report& report, double& p95) {
    core::NidsOptions options;
    options.classifier.analyze_everything = true;
    options.verdict_cache_bytes = cache_bytes;
    core::NidsEngine nids(options);
    pm.unit_seconds->reset();
    report = nids.process_capture(capture);
    p95 = pm.unit_seconds->snapshot().quantile(0.95);
  };

  core::Report off, on;
  double p95_off = 0, p95_on = 0;
  run(0, off, p95_off);
  run(64u << 20, on, p95_on);
  obs::set_metrics_enabled(metrics_were_enabled);

  const double speedup = on.stats.analysis_seconds > 0
                             ? off.stats.analysis_seconds / on.stats.analysis_seconds
                             : 0;
  const double hit_rate =
      on.stats.units_analyzed
          ? static_cast<double>(on.stats.cache_hits) / on.stats.units_analyzed
          : 0;
  const double units_per_s_off =
      off.stats.analysis_seconds > 0 ? off.stats.units_analyzed / off.stats.analysis_seconds : 0;
  const double units_per_s_on =
      on.stats.analysis_seconds > 0 ? on.stats.units_analyzed / on.stats.analysis_seconds : 0;

  std::printf("%-10s %8s %12s %12s %14s %12s\n", "engine", "units", "alerts",
              "analysis(s)", "units/s", "p95 unit(s)");
  bench::rule();
  std::printf("%-10s %8zu %12zu %12.4f %14.0f %12.6f\n", "cache-off",
              off.stats.units_analyzed, off.alerts.size(), off.stats.analysis_seconds,
              units_per_s_off, p95_off);
  std::printf("%-10s %8zu %12zu %12.4f %14.0f %12.6f\n", "cache-on",
              on.stats.units_analyzed, on.alerts.size(), on.stats.analysis_seconds,
              units_per_s_on, p95_on);
  bench::rule();
  std::printf("analysis-stage speedup : %.1fx (need >= 5x)\n", speedup);
  std::printf("cache hit rate         : %.1f%% (%zu/%zu, need >= 90%%)\n",
              hit_rate * 100.0, on.stats.cache_hits, on.stats.units_analyzed);
  std::printf("bytes saved            : %zu\n", on.stats.cache_bytes_saved);

  const bool alerts_match = off.alerts.size() == on.alerts.size();
  const bool ok = speedup >= 5.0 && hit_rate >= 0.9 && alerts_match;
  if (!alerts_match) std::printf("ALERT COUNT MISMATCH between cache-off and cache-on\n");

  json.set("replay_flows", flows);
  json.set("replay_units", on.stats.units_analyzed);
  json.set("replay_speedup", speedup);
  json.set("replay_hit_rate", hit_rate);
  json.set("replay_units_per_s_cache_off", units_per_s_off);
  json.set("replay_units_per_s_cache_on", units_per_s_on);
  json.set("replay_p95_unit_seconds_cache_off", p95_off);
  json.set("replay_p95_unit_seconds_cache_on", p95_on);
  json.set("replay_cache_bytes_saved", static_cast<std::size_t>(on.stats.cache_bytes_saved));
  json.set("replay_ok", ok);
  return ok;
}

}  // namespace

int main() {
  bench::title("Table 3: detection of the Code Red II worm");

  const std::size_t traces = 12;
  const std::size_t target_packets =
      bench::env_size("SENIDS_TRACE_PACKETS", bench::paper_scale() ? 200000 : 4000);

  // CRII instance counts per trace, mirroring the small per-trace numbers
  // in the paper's table.
  const std::size_t planted[12] = {3, 1, 4, 2, 0, 5, 1, 2, 3, 0, 6, 2};

  const net::Ipv4Addr server = net::Ipv4Addr::from_octets(10, 1, 0, 20);

  std::printf("%-7s %10s %9s %11s %9s %10s\n", "trace", "packets", "planted",
              "classified", "matched", "time (s)");
  bench::rule();

  bool all_correct = true;
  std::size_t total_pkts = 0;
  double total_s = 0;

  for (std::size_t t = 0; t < traces; ++t) {
    gen::TraceBuilder tb(9000 + t);
    util::Prng& prng = tb.prng();

    // Infected hosts scan before exploiting (that is how CRII spreads and
    // how the classifier notices them).
    std::size_t next_crii = planted[t];
    std::size_t benign_flows = 0;
    while (tb.capture().records.size() < target_packets) {
      if (next_crii > 0 && prng.chance(0.02)) {
        const net::Endpoint infected{
            net::Ipv4Addr::from_octets(203, 0, 113, static_cast<std::uint8_t>(next_crii)),
            static_cast<std::uint16_t>(4000 + next_crii)};
        tb.add_syn_scan(infected, net::Ipv4Addr::from_octets(10, 1, 200, 1), 80, 6);
        gen::CodeRedOptions cr_opts;
        cr_opts.vary_padding = true;
        tb.add_tcp_flow(infected, net::Endpoint{server, 80},
                        gen::make_code_red_ii_request(prng, cr_opts));
        --next_crii;
      } else {
        const net::Endpoint client{
            net::Ipv4Addr::from_octets(198, 51, 100,
                                       static_cast<std::uint8_t>(1 + prng.below(250))),
            static_cast<std::uint16_t>(32768 + prng.below(20000))};
        tb.add_benign(client, server, gen::make_benign_payload(prng));
        ++benign_flows;
      }
    }

    core::NidsOptions options;
    core::NidsEngine nids(options);
    nids.classifier().dark_space().add_unused_prefix(
        classify::Prefix{net::Ipv4Addr::from_octets(10, 1, 200, 0), 24});

    util::WallTimer timer;
    core::Report report = nids.process_capture(tb.capture());
    const double secs = timer.seconds();
    total_s += secs;
    total_pkts += report.stats.packets;

    // Count distinct sources with a CRII alert (one exploit flow each).
    std::size_t matched = 0;
    std::uint32_t seen_src[16] = {};
    for (const core::Alert& a : report.alerts) {
      if (a.threat != semantic::ThreatClass::kCodeRedII) continue;
      bool dup = false;
      for (std::size_t k = 0; k < matched; ++k) {
        if (seen_src[k] == a.src.value) dup = true;
      }
      if (!dup && matched < 16) seen_src[matched++] = a.src.value;
    }

    const bool correct = matched == planted[t];
    all_correct = all_correct && correct;
    std::printf("%-7zu %10zu %9zu %11zu %9zu %9.3f %s\n", t + 1,
                report.stats.packets, planted[t], matched, matched, secs,
                correct ? "" : "  <-- MISMATCH");
  }

  bench::rule();
  const double pkts_per_s = static_cast<double>(total_pkts) / total_s;
  std::printf("%zu traces, %zu packets total, %.2f s total (%.0f pkt/s)\n", traces,
              total_pkts, total_s, pkts_per_s);
  std::printf("result: every planted instance classified and matched: %s\n",
              all_correct ? "YES" : "NO");
  std::printf("paper: every instance in 12 traces (>200k pkts each) matched correctly\n");

  bench::JsonReport json("table3_codered");
  json.set("traces", traces);
  json.set("packets", total_pkts);
  json.set("seconds", total_s);
  json.set("packets_per_s", pkts_per_s);
  json.set("all_instances_matched", all_correct);
  const bool replay_ok = run_replay_phase(json);
  json.write();
  return all_correct && replay_ok ? 0 : 1;
}
