// Seeded mutation test of the template DSL. The parser builds the built-in
// library from templates/*.tmpl and parses operator files passed to
// senids_scan --templates, so malformed text must fail cleanly: every
// mutant of the two shipped files either parses or yields a ParseError
// whose line lies inside the input, and every template it accepts must
// survive compile_template and the linter.
//
// Mutants: truncation at every byte, random byte flips, and line splices
// (deleting, duplicating or transplanting runs of lines across files).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "semantic/dsl.hpp"
#include "semantic/library.hpp"
#include "semantic/matcher.hpp"
#include "util/prng.hpp"
#include "verify/lint.hpp"

namespace senids::semantic {
namespace {

struct Tally {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
};

std::size_t line_count(std::string_view text) {
  return 1 + static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
}

/// Parse one mutant and push whatever it accepts through the downstream
/// consumers. A crash or hang fails the whole test binary.
void check_mutant(std::string_view text, const std::string& what, Tally& tally) {
  auto result = parse_templates(text);
  if (const auto* err = std::get_if<ParseError>(&result)) {
    ++tally.rejected;
    EXPECT_GE(err->line, 1u) << what;
    EXPECT_LE(err->line, line_count(text) + 1) << what << ": " << err->message;
    EXPECT_FALSE(err->message.empty()) << what;
    return;
  }
  ++tally.accepted;
  const auto& templates = std::get<std::vector<Template>>(result);
  for (const Template& t : templates) (void)compile_template(t);
  (void)verify::lint_templates(templates);
}

std::vector<std::string> split_lines(std::string_view text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::size_t end = nl == std::string_view::npos ? text.size() : nl;
    lines.emplace_back(text.substr(start, end - start));
    if (nl == std::string_view::npos) break;
    start = nl + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i) out.push_back('\n');
    out += lines[i];
  }
  return out;
}

const std::vector<std::string_view>& shipped_files() {
  static const std::vector<std::string_view> files{standard_library_source(),
                                                   extended_library_source()};
  return files;
}

TEST(DslMutation, TruncationAtEveryByte) {
  Tally tally;
  for (std::string_view file : shipped_files()) {
    for (std::size_t n = 0; n <= file.size(); ++n) {
      check_mutant(file.substr(0, n), "prefix of " + std::to_string(n) + " bytes", tally);
    }
  }
  // Cuts that land between templates leave whole templates behind.
  EXPECT_GT(tally.accepted, 0u);
  EXPECT_GT(tally.rejected, 0u);
}

TEST(DslMutation, RandomByteFlips) {
  // Bytes the grammar gives meaning to, plus arbitrary ones.
  static constexpr char kSyntax[] = "{}()*;:,=\"#\n 0x9AKZ-_";
  util::Prng prng(18);
  Tally tally;
  for (std::string_view file : shipped_files()) {
    for (int round = 0; round < 1500; ++round) {
      std::string text(file);
      const auto flips = 1 + prng.below(4);
      for (std::uint64_t f = 0; f < flips; ++f) {
        const auto pos = static_cast<std::size_t>(prng.below(text.size()));
        text[pos] = prng.chance(0.5)
                        ? kSyntax[prng.below(sizeof kSyntax - 1)]
                        : static_cast<char>(prng.byte());
      }
      check_mutant(text, "flip round " + std::to_string(round), tally);
    }
  }
  EXPECT_GT(tally.rejected, 0u);
}

TEST(DslMutation, LineSplices) {
  util::Prng prng(1806);
  const auto& files = shipped_files();
  Tally tally;
  for (int round = 0; round < 1500; ++round) {
    std::vector<std::string> lines = split_lines(files[prng.below(files.size())]);
    const std::vector<std::string> donor = split_lines(files[prng.below(files.size())]);
    const auto at = static_cast<std::size_t>(prng.below(lines.size() + 1));
    const auto from = static_cast<std::size_t>(prng.below(donor.size()));
    const auto len = std::min<std::size_t>(donor.size() - from, 1 + prng.below(8));
    switch (prng.below(3)) {
      case 0: {  // delete a run of lines
        const std::size_t end = std::min(lines.size(), at + len);
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(std::min(at, end)),
                    lines.begin() + static_cast<std::ptrdiff_t>(end));
        break;
      }
      case 1:  // insert a run of donor lines
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                     donor.begin() + static_cast<std::ptrdiff_t>(from),
                     donor.begin() + static_cast<std::ptrdiff_t>(from + len));
        break;
      default:  // overwrite lines with donor lines
        for (std::size_t k = 0; k < len && at + k < lines.size(); ++k) {
          lines[at + k] = donor[from + k];
        }
        break;
    }
    check_mutant(join_lines(lines), "splice round " + std::to_string(round), tally);
  }
  EXPECT_GT(tally.accepted, 0u);
  EXPECT_GT(tally.rejected, 0u);
}

}  // namespace
}  // namespace senids::semantic
