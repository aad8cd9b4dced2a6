// google-benchmark microbenchmarks for the pipeline stages, backing the
// "our implementation is more efficient than [5]" claim with per-stage
// numbers: decode, scan, lift, match, extract, signature scan, pcap parse.
// BM_MatchLibrary sweeps the template count (1, 12, 100) to show how the
// per-trace match cost grows with the library.
#include <benchmark/benchmark.h>

#include "extract/extractor.hpp"
#include "emu/shellemu.hpp"
#include "gen/benign.hpp"
#include "gen/codered.hpp"
#include "gen/emitter.hpp"
#include "gen/poly.hpp"
#include "gen/shellcode.hpp"
#include "ir/lifter.hpp"
#include "pcap/pcap.hpp"
#include "semantic/analyzer.hpp"
#include "semantic/library.hpp"
#include "semantic/matcher.hpp"
#include "sig/rules.hpp"
#include "arch/scan.hpp"

using namespace senids;

namespace {

util::Bytes poly_sample() {
  util::Prng prng(1);
  return gen::admmutate_encode(gen::make_shell_spawn_corpus()[1].code, prng).bytes;
}

util::Bytes benign_blob(std::size_t size) {
  util::Prng prng(2);
  util::Bytes out;
  while (out.size() < size) {
    auto p = gen::make_benign_payload(prng);
    out.insert(out.end(), p.data.begin(), p.data.end());
  }
  out.resize(size);
  return out;
}

void BM_DecodeLinear(benchmark::State& state) {
  const util::Bytes code = poly_sample();
  for (auto _ : state) {
    benchmark::DoNotOptimize(arch::linear_sweep(code));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * code.size()));
}
BENCHMARK(BM_DecodeLinear);

void BM_FindCodeRuns(benchmark::State& state) {
  const util::Bytes blob = benign_blob(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(arch::find_code_runs(blob, 6));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * blob.size()));
}
BENCHMARK(BM_FindCodeRuns)->Arg(4 << 10)->Arg(64 << 10);

void BM_ExecutionTraceAndLift(benchmark::State& state) {
  const util::Bytes code = poly_sample();
  for (auto _ : state) {
    auto trace = arch::execution_trace(code, 0);
    benchmark::DoNotOptimize(ir::lift(trace));
  }
}
BENCHMARK(BM_ExecutionTraceAndLift);

void BM_TemplateMatch(benchmark::State& state) {
  const util::Bytes code = poly_sample();
  auto trace = arch::execution_trace(code, 0);
  auto lifted = ir::lift(trace);
  semantic::LiftedCode lc{&trace, &lifted.events, code, lifted.arena.get()};
  const auto t = semantic::library_template("xor-decrypt-loop");
  for (auto _ : state) {
    benchmark::DoNotOptimize(semantic::match_template(t, lc));
  }
}
BENCHMARK(BM_TemplateMatch);

/// Lifted traces of benign content: every decode run of a 16 KB benign
/// blob traced from its start, kept when long enough to analyze.
struct BenignTraces {
  util::Bytes blob = benign_blob(16 << 10);
  std::vector<std::vector<arch::Instruction>> traces;
  std::vector<ir::LiftResult> lifted;

  BenignTraces() {
    for (const arch::CodeRun& run : arch::find_code_runs(blob, 6)) {
      auto trace = arch::execution_trace(blob, run.start);
      if (trace.size() < 6) continue;
      lifted.push_back(ir::lift(trace));
      traces.push_back(std::move(trace));
    }
  }
};

const BenignTraces& benign_traces() {
  static const BenignTraces corpus;
  return corpus;
}

/// ir::lift alone over the benign trace corpus, into one reused result
/// as an analyzer worker does (its arena is recycled for every trace).
void BM_LiftBenignTraces(benchmark::State& state) {
  const BenignTraces& corpus = benign_traces();
  ir::LiftResult lifted;
  for (auto _ : state) {
    for (const auto& trace : corpus.traces) {
      ir::lift(trace, lifted);
      benchmark::DoNotOptimize(lifted.events.data());
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * corpus.traces.size()));
  state.counters["traces"] = static_cast<double>(corpus.traces.size());
}
BENCHMARK(BM_LiftBenignTraces);

/// Per-trace match cost against a library of state.range(0) templates:
/// the standard library, then renamed copies of it. The analyzer's inner
/// loop, over a fixed set of benign traces on which nothing fires.
void BM_MatchLibrary(benchmark::State& state) {
  const BenignTraces& corpus = benign_traces();
  const auto standard = semantic::make_standard_library();
  std::vector<semantic::CompiledTemplate> library;
  for (std::size_t i = 0; i < static_cast<std::size_t>(state.range(0)); ++i) {
    semantic::Template t = standard[i % standard.size()];
    t.name += "-" + std::to_string(i);
    library.push_back(semantic::compile_template(t));
  }
  semantic::TraceMatcher matcher;
  std::size_t matches = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < corpus.traces.size(); ++i) {
      matcher.reset(
          semantic::LiftedCode{&corpus.traces[i], &corpus.lifted[i].events, corpus.blob});
      for (const auto& t : library) {
        if (matcher.may_match(t) && matcher.match(t)) ++matches;
      }
    }
  }
  benchmark::DoNotOptimize(matches);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * corpus.traces.size()));
  state.counters["traces"] = static_cast<double>(corpus.traces.size());
}
BENCHMARK(BM_MatchLibrary)->Arg(1)->Arg(12)->Arg(100);

void BM_AnalyzeExploitFrame(benchmark::State& state) {
  semantic::SemanticAnalyzer analyzer(semantic::make_standard_library());
  const util::Bytes code = poly_sample();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.analyze(code));
  }
}
BENCHMARK(BM_AnalyzeExploitFrame);

void BM_AnalyzeBenignFrame(benchmark::State& state) {
  semantic::SemanticAnalyzer analyzer(semantic::make_standard_library());
  const util::Bytes blob = benign_blob(1400);  // one MTU-sized payload
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.analyze(blob));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * blob.size()));
}
BENCHMARK(BM_AnalyzeBenignFrame);

void BM_ExtractCodeRed(benchmark::State& state) {
  extract::BinaryExtractor extractor;
  const util::Bytes req = gen::make_code_red_ii_request();
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.extract(req));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * req.size()));
}
BENCHMARK(BM_ExtractCodeRed);

void BM_ExtractBenign(benchmark::State& state) {
  extract::BinaryExtractor extractor;
  const util::Bytes blob = benign_blob(1400);
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.extract(blob));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * blob.size()));
}
BENCHMARK(BM_ExtractBenign);

void BM_SignatureScan(benchmark::State& state) {
  sig::SignatureEngine engine(sig::make_default_rules());
  const util::Bytes blob = benign_blob(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.scan(blob, 80));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * blob.size()));
}
BENCHMARK(BM_SignatureScan)->Arg(64 << 10);

void BM_EmulateDecoder(benchmark::State& state) {
  const util::Bytes code = poly_sample();
  for (auto _ : state) {
    benchmark::DoNotOptimize(emu::emulate_frame(code));
  }
}
BENCHMARK(BM_EmulateDecoder);

void BM_EmulatorSteps(benchmark::State& state) {
  // Raw interpreter speed: a tight counted loop.
  const util::Bytes code = [] {
    gen::Asm a;
    auto head = a.new_label();
    a.mov_r32_imm32(gen::R32::ecx, 10000);
    a.bind(head);
    a.inc_r32(gen::R32::eax);
    a.loop_(head);
    a.raw8(0xF4);
    return a.finish();
  }();
  std::size_t steps = 0;
  for (auto _ : state) {
    emu::VirtualMemory mem(code);
    emu::Cpu cpu(mem, emu::kFrameBase);
    cpu.run(1 << 20);
    steps += cpu.steps();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_EmulatorSteps);

void BM_PcapParse(benchmark::State& state) {
  pcap::Capture cap;
  util::Prng prng(3);
  for (int i = 0; i < 1000; ++i) cap.add(i, 0, prng.bytes(600));
  const util::Bytes data = pcap::serialize(cap);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pcap::parse(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * data.size()));
}
BENCHMARK(BM_PcapParse);

}  // namespace

BENCHMARK_MAIN();
