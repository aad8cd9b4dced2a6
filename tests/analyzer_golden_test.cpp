// Golden analyzer output. Every generator corpus is run frame by frame
// through SemanticAnalyzer in both arch modes (plus a tight-budget
// configuration), and the full observable result is rendered to text:
// each detection's template, entry and match offsets and bindings, and
// every AnalyzerStats count. The rendering must equal the committed
// tests/data/analyzer_golden.txt byte for byte, so any change to the
// scanner, lifter or matcher that moves a verdict, a binding or a work
// counter shows up here as a diff.
//
// On a mismatch the test writes the rendering it got to
// analyzer_golden.actual.txt in its working directory; after an
// intended behaviour change, review that diff and copy it over the
// committed file.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "arch/arch.hpp"
#include "extract/extractor.hpp"
#include "gen/benign.hpp"
#include "gen/codered.hpp"
#include "gen/mailworm.hpp"
#include "gen/poly.hpp"
#include "gen/shellcode.hpp"
#include "gen/shellcode64.hpp"
#include "ir/expr.hpp"
#include "semantic/analyzer.hpp"
#include "semantic/library.hpp"

namespace senids::semantic {
namespace {

struct Corpus {
  std::string name;
  std::vector<util::Bytes> payloads;
};

std::vector<Corpus> make_corpora() {
  util::Prng prng(20061);
  std::vector<Corpus> out;
  const auto shells = gen::make_shell_spawn_corpus();

  Corpus shell{"shell", {}};
  Corpus bindshell{"bindshell", {}};
  for (const auto& s : shells) {
    Corpus& c = s.binds_port ? bindshell : shell;
    c.payloads.push_back(s.code);
    c.payloads.push_back(gen::wrap_in_overflow(s.code, prng));
  }
  shell.payloads.push_back(gen::make_reverse_shell(0x0a141e28, 0x5c11));
  out.push_back(std::move(shell));
  out.push_back(std::move(bindshell));

  out.push_back({"xor-decoder",
                 {gen::make_iis_asp_overflow_payload(),
                  gen::make_fnstenv_decoder_payload(),
                  gen::make_netsky_like_sample(prng, 6 * 1024)}});

  Corpus adm{"admmutate", {}};
  Corpus clet{"clet", {}};
  for (std::size_t i = 0; i < 8; ++i) {
    const auto& code = shells[i % shells.size()].code;
    adm.payloads.push_back(gen::admmutate_encode(code, prng).bytes);
    clet.payloads.push_back(gen::clet_encode(code, prng).bytes);
  }
  out.push_back(std::move(adm));
  out.push_back(std::move(clet));

  out.push_back({"codered",
                 {gen::make_code_red_ii_request(), gen::make_code_red_ii_request(prng)}});

  Corpus mail{"mailworm", {}};
  for (int i = 0; i < 3; ++i) {
    mail.payloads.push_back(gen::make_email_worm(prng).smtp_payload);
  }
  out.push_back(std::move(mail));

  Corpus benign{"benign", {}};
  for (int i = 0; i < 60; ++i) {
    benign.payloads.push_back(gen::make_benign_payload(prng).data);
  }
  for (int i = 0; i < 2; ++i) benign.payloads.push_back(gen::make_benign_email(prng));
  out.push_back(std::move(benign));

  Corpus suspicious{"suspicious-benign", {}};
  for (int i = 0; i < 18; ++i) {
    suspicious.payloads.push_back(gen::make_suspicious_benign_payload(prng).data);
  }
  out.push_back(std::move(suspicious));

  Corpus x64{"exploit64", {}};
  for (const auto& s : gen::ExploitBuilder64::corpus()) {
    x64.payloads.push_back(s.code);
    x64.payloads.push_back(gen::ExploitBuilder64::wrap(s.code, prng));
  }
  out.push_back(std::move(x64));
  return out;
}

/// The frames a payload is analysed as: whatever the default extractor
/// cuts out of it, plus the whole payload (the --analyze-all shape).
std::vector<extract::BinaryFrame> frames_of(const util::Bytes& payload) {
  std::vector<extract::BinaryFrame> frames = extract::BinaryExtractor().extract(payload);
  extract::BinaryFrame whole;
  whole.data = payload;
  whole.reason = extract::FrameReason::kWholePayload;
  frames.push_back(std::move(whole));
  return frames;
}

struct Config {
  std::string name;
  SemanticAnalyzer::Options options;
};

std::vector<Config> make_configs() {
  std::vector<Config> configs;
  SemanticAnalyzer::Options o32;
  o32.arch = &arch::Arch::x86_32();
  configs.push_back({"x86_32", o32});
  SemanticAnalyzer::Options o64;
  o64.arch = &arch::Arch::x86_64();
  configs.push_back({"x86_64", o64});
  // Small work budgets, so both budget counters and the early exits they
  // guard are part of the record.
  SemanticAnalyzer::Options tight = o32;
  tight.max_entries = 24;
  tight.max_total_insns = 600;
  configs.push_back({"x86_32-tight", tight});
  return configs;
}

std::string render() {
  const auto corpora = make_corpora();
  std::ostringstream out;
  for (const Config& config : make_configs()) {
    const SemanticAnalyzer analyzer(make_standard_library(), config.options);
    AnalyzerScratch scratch;  // reused across frames, as a worker does
    for (const Corpus& corpus : corpora) {
      out << "# " << config.name << " " << corpus.name << "\n";
      for (std::size_t p = 0; p < corpus.payloads.size(); ++p) {
        const auto frames = frames_of(corpus.payloads[p]);
        for (std::size_t f = 0; f < frames.size(); ++f) {
          const extract::BinaryFrame& frame = frames[f];
          AnalyzerStats stats;
          const auto detections = analyzer.analyze(frame.data, &stats, scratch);
          out << "frame " << p << "." << f << " "
              << extract::frame_reason_name(frame.reason)
              << " bytes=" << frame.data.size() << " frames=" << stats.frames
              << " runs=" << stats.candidate_runs << " traces=" << stats.traces
              << " insns=" << stats.instructions_lifted
              << " tried=" << stats.template_matches_tried
              << " entry_budget=" << stats.entry_budget_exhausted
              << " insn_budget=" << stats.insn_budget_exhausted << "\n";
          for (const Detection& d : detections) {
            out << "  " << d.template_name << " entry=" << d.entry_offset
                << " match=" << d.match_offset << "\n";
            for (const auto& [var, value] : d.bindings) {
              out << "    " << var << " = " << ir::to_string(value) << "\n";
            }
          }
        }
      }
    }
  }
  return out.str();
}

TEST(AnalyzerGolden, OutputMatchesCommittedRecord) {
  const std::string path =
      std::string(SENIDS_SOURCE_DIR) + "/tests/data/analyzer_golden.txt";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing " << path;
  std::ostringstream expected;
  expected << in.rdbuf();

  const std::string actual = render();
  if (actual != expected.str()) {
    std::ofstream("analyzer_golden.actual.txt", std::ios::binary) << actual;
  }
  // Compare line by line so a failure names the first differing frame.
  std::istringstream a(actual), e(expected.str());
  std::string la, le;
  std::size_t line = 0;
  while (true) {
    const bool more_a = static_cast<bool>(std::getline(a, la));
    const bool more_e = static_cast<bool>(std::getline(e, le));
    ++line;
    if (!more_a && !more_e) break;
    ASSERT_EQ(more_a, more_e) << "line count differs at line " << line;
    ASSERT_EQ(la, le) << "first difference at line " << line;
  }
}

}  // namespace
}  // namespace senids::semantic
