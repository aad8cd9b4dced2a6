#include "semantic/library.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "semantic/dsl.hpp"

namespace senids::semantic {

namespace {

// kStandardTmpl / kExtendedTmpl: the template files' bytes, generated at
// configure time (src/semantic/CMakeLists.txt).
#include "semantic/builtin_templates.inc"

std::string_view as_text(const unsigned char* bytes, std::size_t n) noexcept {
  return {reinterpret_cast<const char*>(bytes), n};
}

/// Parse one embedded file. The text is fixed at build time and the
/// tests parse it, so a failure here is a broken build, not an input
/// error: report the parser's line and message and abort.
std::vector<Template> parse_builtin(const char* file, std::string_view text) {
  auto parsed = parse_templates(text);
  if (const auto* err = std::get_if<ParseError>(&parsed)) {
    std::fprintf(stderr, "senids: built-in %s line %zu: %s\n", file, err->line,
                 err->message.c_str());
    std::abort();
  }
  return std::get<std::vector<Template>>(std::move(parsed));
}

const std::vector<Template>& standard_set() {
  static const std::vector<Template> set =
      parse_builtin("templates/standard.tmpl", standard_library_source());
  return set;
}

const std::vector<Template>& extended_set() {
  static const std::vector<Template> set = [] {
    std::vector<Template> lib = standard_set();
    for (Template& t : parse_builtin("templates/extended.tmpl", extended_library_source())) {
      lib.push_back(std::move(t));
    }
    return lib;
  }();
  return set;
}

std::vector<Template> subset(std::initializer_list<std::string_view> names) {
  std::vector<Template> out;
  for (std::string_view name : names) out.push_back(library_template(name));
  return out;
}

}  // namespace

std::string_view standard_library_source() noexcept {
  return as_text(kStandardTmpl, sizeof kStandardTmpl);
}

std::string_view extended_library_source() noexcept {
  return as_text(kExtendedTmpl, sizeof kExtendedTmpl);
}

Template library_template(std::string_view name) {
  for (const Template& t : extended_set()) {
    if (t.name == name) return t;
  }
  throw std::out_of_range("no built-in template named '" + std::string(name) + "'");
}

std::vector<Template> make_xor_only_library() { return subset({"xor-decrypt-loop"}); }

std::vector<Template> make_decoder_library() {
  return subset({"xor-decrypt-loop", "add-decrypt-loop", "admmutate-alt-decoder"});
}

std::vector<Template> make_standard_library() { return standard_set(); }

std::vector<Template> make_extended_library() { return extended_set(); }

}  // namespace senids::semantic
