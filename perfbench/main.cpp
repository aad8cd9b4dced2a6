// The senids benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--trace-out <file>]
//
// Generates the named workload from the seed and runs it through
// pcap::parse + NidsEngine::process_capture with the option set
// senids_scan would use. --trace 0 measures the end-to-end metrics;
// --trace 1 drives every layer through its public functions with spans
// around each call and reports the per-layer metrics. Every run checks
// its outputs against the generator's ground truth. Human-readable lines
// start with '#'; the last line of stdout is the JSON result.
#include <malloc.h>
#include <sys/personality.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>

#include "checks.hpp"
#include "stats.hpp"
#include "traced.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string trace_out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = end && *end == '\0' && *value != '\0';
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (!end || *end != '\0' || !(args.seconds > 0)) return std::nullopt;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return std::nullopt;
      }
      args.trace = value[0] == '1';
    } else if (key == "--commit") {
      args.commit = value;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || !have_workload || !have_seed) return std::nullopt;
  return args;
}

/// Address-space layout randomisation gives every process a different
/// heap, stack and mapping layout, and the cache-aliasing effects of the
/// layout swung the same run by ±15% between processes on a 4-core VM
/// (±2% without it). Re-execute once with randomisation off, so every
/// run of one build sees one layout. Carries on as is when the kernel
/// refuses.
void exec_without_aslr(char** argv) {
  const int current = personality(0xffffffff);
  if (current == -1 || (current & ADDR_NO_RANDOMIZE)) return;
  if (personality(static_cast<unsigned long>(current) | ADDR_NO_RANDOMIZE) == -1) return;
  execv("/proc/self/exe", argv);
}

bool aslr_off() {
  const int current = personality(0xffffffff);
  return current != -1 && (current & ADDR_NO_RANDOMIZE);
}

/// Host and build record. An unoptimised or assert-enabled build is
/// flagged: its numbers say nothing about the shipped configuration.
void print_host_record(const Args& args) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool asserts = false;
#else
  const bool asserts = true;
#endif
  std::printf("# host: nproc=%u avx2=%s aslr=%s\n", std::thread::hardware_concurrency(),
              __builtin_cpu_supports("avx2") ? "yes" : "no", aslr_off() ? "off" : "on");
  std::printf("# build: CMAKE_BUILD_TYPE=%s SENIDS_OBS=%s compiler=\"%s\" commit=%s "
              "asserts=%s\n",
              build_type.c_str(), PERFBENCH_OBS ? "ON" : "OFF", PERFBENCH_COMPILER,
              args.commit.c_str(), asserts ? "on" : "off");
  if ((build_type != "Release" && build_type != "RelWithDebInfo") || asserts) {
    std::fprintf(stderr, "perfbench: WARNING: build is not optimised (%s, asserts %s)\n",
                 build_type.c_str(), asserts ? "on" : "off");
  }
}

/// One setup_s sample: engine construction + honeypot/dark registration +
/// make_analysis_context(). One construction takes well under a
/// millisecond, so a sample times a batch and divides.
double setup_sample(const Workload& w) {
  constexpr std::size_t kPerBatch = 64;
  std::vector<core::NidsEngine> engines;
  std::vector<core::AnalysisContext> contexts;
  engines.reserve(kPerBatch);
  contexts.reserve(kPerBatch);
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < kPerBatch; ++i) {
    engines.push_back(make_engine(w));
    contexts.push_back(engines.back().make_analysis_context());
  }
  return seconds_between(t0, Clock::now()) / kPerBatch;
}

/// setup_s samples (batches) a round takes.
constexpr int kSetupBatches = 8;

/// Number of workload variants a timed run cycles through: each round
/// measures a fresh variant, so the run's medians and quantiles average
/// over several contents of the same mix, not over one draw.
constexpr std::size_t kVariants = 8;

/// Alerts of each variant's first pass, once it has run.
using References = std::vector<std::optional<std::vector<core::Alert>>>;

/// Checks one process_capture pass over variant `v`. The first pass over
/// a variant counts its units and wrong verdicts into `out` and becomes
/// the reference every later pass over it must reproduce. So attempted
/// and failed depend on the seed alone, never on how many rounds fit in
/// the run.
void check_pass(const Workload& w, std::size_t v, core::Report report, References& refs,
                RunResult& out, CheckLog& log) {
  const std::size_t errors = check_report(w, report, refs[v] ? &*refs[v] : nullptr, log);
  if (refs[v]) return;
  out.attempted += report.stats.units_analyzed;
  out.failed += errors;
  refs[v] = std::move(report.alerts);
}

/// The timed run: rounds until `seconds` of measuring have passed (at
/// least three). Each round generates the next variant (untimed), then
/// takes kSetupBatches setup samples, one throughput pass and one verdict pass,
/// so every metric's samples are spread over the whole run. The first
/// round starts with an untimed warm-up pass. Variants no round reached
/// are then run once, untimed, so that every run checks all of them.
RunResult run_timed(const std::string& name, std::uint64_t seed, double seconds,
                    CheckLog& log) {
  RunResult out;
  References refs(kVariants);
  std::vector<double> setup_s, mb_s, verdict_us, peak_rss_mb;
  std::size_t rounds = 0, packets = 0, units = 0;
  double pcap_mb = 0, measured = 0;
  while (rounds < 3 || measured < seconds) {
    const std::size_t variant = rounds % kVariants;
    const Workload w = *make_workload(name, seed, variant);
    const double bytes = static_cast<double>(w.pcap_bytes.size());
    packets += w.packets;
    units += w.units.size();
    pcap_mb += bytes / 1e6;
    ++rounds;

    // Resident memory is measured from here: the workload is generated.
    malloc_trim(0);
    const long base_rss_kb = proc_status_kb("VmRSS");
    log.expect(reset_peak_rss(), "cannot reset the resident high-water mark");
    // Warm-up; its alerts are the reference the first timed pass must
    // reproduce exactly.
    if (rounds == 1) {
      for (int i = 0; i < 4; ++i) setup_sample(w);
      core::NidsEngine engine = make_engine(w);
      auto capture = pcap::parse(w.pcap_bytes);
      log.expect(capture.has_value(), "pcap::parse rejected the generated capture");
      if (!capture) return out;
      check_pass(w, variant, engine.process_capture(*capture), refs, out, log);
    }

    const Clock::time_point round_start = Clock::now();
    for (int i = 0; i < kSetupBatches; ++i) setup_s.push_back(setup_sample(w));

    // Throughput: parse + process_capture on a fresh engine, so taint
    // and cache state start empty as in one senids_scan invocation.
    std::vector<core::Alert> capture_alerts;
    {
      core::NidsEngine engine = make_engine(w);
      const Clock::time_point t0 = Clock::now();
      auto capture = pcap::parse(w.pcap_bytes);
      if (!capture) {
        log.fail("pcap::parse rejected the generated capture");
        return out;
      }
      core::Report report = engine.process_capture(*capture);
      mb_s.push_back(bytes / 1e6 / seconds_between(t0, Clock::now()));
      capture_alerts = report.alerts;
      check_pass(w, variant, std::move(report), refs, out, log);
    }

    // Verdict service time: every unit the workload forms, one call at a
    // time through one held context, on a fresh engine.
    core::NidsEngine engine = make_engine(w);
    core::AnalysisContext ctx = engine.make_analysis_context();
    std::vector<core::Alert> unit_alerts;
    for (const UnitTruth& u : w.units) {
      const Clock::time_point t0 = Clock::now();
      std::vector<core::Alert> found = engine.analyze_payload(ctx, u.payload, u.meta);
      verdict_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      unit_alerts.insert(unit_alerts.end(), found.begin(), found.end());
    }
    measured += seconds_between(round_start, Clock::now());
    const long peak_kb = proc_status_kb("VmHWM");
    log.expect(peak_kb > 0 && base_rss_kb > 0, "cannot read resident memory");
    peak_rss_mb.push_back(static_cast<double>(peak_kb - base_rss_kb) / 1024.0);
    log.expect(same_verdicts(capture_alerts, unit_alerts),
               "analyze_payload alerts differ from process_capture alerts");
  }
  for (std::size_t v = 0; v < kVariants; ++v) {
    if (refs[v]) continue;
    const Workload w = *make_workload(name, seed, v);
    core::NidsEngine engine = make_engine(w);
    auto capture = pcap::parse(w.pcap_bytes);
    log.expect(capture.has_value(), "pcap::parse rejected the generated capture");
    if (!capture) return out;
    check_pass(w, v, engine.process_capture(*capture), refs, out, log);
  }

  const auto per_round = [rounds](double total) {
    return total / static_cast<double>(rounds);
  };
  const double error_ratio = out.attempted ? static_cast<double>(out.failed) /
                                                 static_cast<double>(out.attempted)
                                           : 0;
  std::printf("# workload %s seed %llu: %zu rounds over variants 0-%zu; per round %.0f "
              "packets, %.2f MB pcap, %.0f units\n",
              name.c_str(), static_cast<unsigned long long>(seed), rounds,
              std::min<std::size_t>(rounds, kVariants) - 1,
              per_round(static_cast<double>(packets)), per_round(pcap_mb),
              per_round(static_cast<double>(units)));
  std::printf("# throughput_mb_s by round:");
  for (double x : mb_s) std::printf(" %.4g", x);
  std::printf("\n");
  std::printf("# samples: %zu throughput passes, %zu setup batches, %zu verdicts\n",
              mb_s.size(), setup_s.size(), verdict_us.size());
  std::printf("# verdict_error_ratio = %.6f ratio (%zu of %zu units, variants 0-%zu "
              "checked once each)\n",
              error_ratio, out.failed, out.attempted, kVariants - 1);
  out.metrics = {
      {"throughput_mb_s", median(mb_s), "MB/s"},
      {"verdict_p50_us", quantile(verdict_us, 0.50), "us"},
      {"verdict_p99_us", quantile(verdict_us, 0.99), "us"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", median(peak_rss_mb), "MB"},
  };
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  exec_without_aslr(argv);
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--commit <id>] [--trace-out <file>]\n",
                 argv[0]);
    return 2;
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), args->workload) == names.end()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  print_host_record(*args);

  CheckLog log;
  const RunResult r =
      args->trace ? run_traced(*make_workload(args->workload, args->seed), args->seconds,
                               args->trace_out, log)
                  : run_timed(args->workload, args->seed, args->seconds, log);
  for (const Metric& m : r.metrics) {
    std::printf("# %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_result(log.ok() && r.attempted > 0, std::max<std::size_t>(r.attempted, 1),
               r.failed, r.metrics);
  return 0;
}
