#include <gtest/gtest.h>

#include "semantic/dsl.hpp"

namespace senids::semantic {
namespace {

std::vector<Template> parse_ok(std::string_view text) {
  auto result = parse_templates(text);
  if (auto* err = std::get_if<ParseError>(&result)) {
    ADD_FAILURE() << "parse error at line " << err->line << ": " << err->message;
    return {};
  }
  return std::get<std::vector<Template>>(result);
}

ParseError parse_err(std::string_view text) {
  auto result = parse_templates(text);
  if (std::holds_alternative<std::vector<Template>>(result)) {
    ADD_FAILURE() << "expected a parse error";
    return {};
  }
  return std::get<ParseError>(result);
}

TEST(Dsl, ParsesXorDecryptTemplate) {
  auto templates = parse_ok(R"(
    # the canonical decoder template
    template xor-decrypt : decryption-loop {
      store *A = xor(load(*A), K)
      advance A
      loopback
    }
  )");
  ASSERT_EQ(templates.size(), 1u);
  const Template& t = templates[0];
  EXPECT_EQ(t.name, "xor-decrypt");
  EXPECT_EQ(t.threat, ThreatClass::kDecryptionLoop);
  ASSERT_EQ(t.stmts.size(), 3u);
  EXPECT_EQ(t.stmts[0].kind, Stmt::Kind::kMemWrite);
  EXPECT_EQ(t.stmts[1].kind, Stmt::Kind::kAdvance);
  EXPECT_EQ(t.stmts[1].ref_var, "A");
  EXPECT_EQ(t.stmts[2].kind, Stmt::Kind::kBranchBack);
}

TEST(Dsl, ParsesSyscallModifiers) {
  auto templates = parse_ok(R"(
    template bind : port-bind-shell {
      syscall 0x66 sub 1
      syscall 0x66 sub 2
      syscall 0x0b path "/bin"
    }
  )");
  ASSERT_EQ(templates.size(), 1u);
  const auto& stmts = templates[0].stmts;
  ASSERT_EQ(stmts.size(), 3u);
  EXPECT_EQ(stmts[0].sysno.value(), 0x66);
  EXPECT_EQ(stmts[0].ebx_low.value(), 1);
  EXPECT_EQ(stmts[1].ebx_low.value(), 2);
  EXPECT_EQ(stmts[2].sysno.value(), 0x0b);
  EXPECT_EQ(stmts[2].ebx_points_to, "/bin");
}

TEST(Dsl, ParsesTransformPattern) {
  auto templates = parse_ok(R"(
    template alt : decryption-loop {
      store *A = transform(load(*A); or, and, not)
      advance A
      loopback
    }
  )");
  ASSERT_EQ(templates.size(), 1u);
  const auto& stmt = templates[0].stmts[0];
  ASSERT_EQ(stmt.value->kind, PatKind::kTransform);
  EXPECT_EQ(stmt.value->allowed.size(), 2u);
  EXPECT_TRUE(stmt.value->allow_not);
}

TEST(Dsl, ParsesFixedConstAndRegwrite) {
  auto templates = parse_ok(R"(
    template crii : code-red-ii {
      store * = 0x7801cbd3
      regwrite add(*X, C)
    }
  )");
  ASSERT_EQ(templates.size(), 1u);
  const auto& s0 = templates[0].stmts[0];
  ASSERT_EQ(s0.value->kind, PatKind::kFixedConst);
  EXPECT_EQ(s0.value->fixed, 0x7801cbd3u);
  EXPECT_EQ(templates[0].stmts[1].kind, Stmt::Kind::kRegWrite);
}

TEST(Dsl, ParsesMultipleTemplates) {
  auto templates = parse_ok(R"(
    template a { loopback }
    template b : shell-spawn { syscall 11 }
  )");
  ASSERT_EQ(templates.size(), 2u);
  EXPECT_EQ(templates[0].threat, ThreatClass::kCustom);
  EXPECT_EQ(templates[1].threat, ThreatClass::kShellSpawn);
  EXPECT_EQ(templates[1].stmts[0].sysno.value(), 11);
}

TEST(Dsl, ParsesDecimalAndHexNumbers) {
  auto templates = parse_ok("template t { syscall 11 }\ntemplate u { syscall 0x0b }");
  EXPECT_EQ(templates[0].stmts[0].sysno.value(), templates[1].stmts[0].sysno.value());
}

TEST(Dsl, EmptyInputYieldsNoTemplates) {
  EXPECT_TRUE(parse_ok("  # only a comment\n").empty());
}

TEST(Dsl, ErrorOnMissingBrace) {
  ParseError e = parse_err("template t  syscall 11 }");
  EXPECT_NE(e.message.find("'{'"), std::string::npos);
}

TEST(Dsl, ErrorOnUnknownStatement) {
  ParseError e = parse_err("template t { frobnicate }");
  EXPECT_NE(e.message.find("frobnicate"), std::string::npos);
}

TEST(Dsl, ErrorOnUnknownThreatClass) {
  ParseError e = parse_err("template t : nonsense { loopback }");
  EXPECT_NE(e.message.find("nonsense"), std::string::npos);
}

TEST(Dsl, ErrorOnEmptyTemplate) {
  ParseError e = parse_err("template t { }");
  EXPECT_NE(e.message.find("no statements"), std::string::npos);
}

TEST(Dsl, ErrorOnUnterminatedBody) {
  ParseError e = parse_err("template t { loopback ");
  EXPECT_NE(e.message.find("end of input"), std::string::npos);
}

TEST(Dsl, ErrorCarriesLineNumber) {
  ParseError e = parse_err("template t {\n  loopback\n  bogus\n}");
  EXPECT_EQ(e.line, 3u);
}

TEST(Dsl, ErrorOnBadPattern) {
  ParseError e = parse_err("template t { store *A = xor(load(*A) K) }");
  EXPECT_FALSE(e.message.empty());
}

TEST(Dsl, ErrorOnSyscallNumberOverOneByte) {
  // 0x166 would previously truncate to 0x66 silently (matching socketcall
  // instead of failing); the parser must reject it.
  ParseError e = parse_err("template t { syscall 0x166 }");
  EXPECT_NE(e.message.find("syscall number must fit in one byte"),
            std::string::npos)
      << e.message;
}

TEST(Dsl, ErrorOnSubNumberOverOneByte) {
  ParseError e = parse_err("template t { syscall 0x66 sub 0x101 }");
  EXPECT_NE(e.message.find("sub number must fit in one byte"), std::string::npos)
      << e.message;
}

TEST(Dsl, BareUppercaseIdentIsSymbolicConst) {
  auto templates = parse_ok("template t { regwrite K }");
  ASSERT_EQ(templates.size(), 1u);
  EXPECT_EQ(templates[0].stmts[0].value->kind, PatKind::kConst);
  EXPECT_EQ(templates[0].stmts[0].value->var, "K");
}

TEST(Dsl, AnonymousStarHasNoBinding) {
  auto templates = parse_ok("template t { regwrite * }");
  EXPECT_EQ(templates[0].stmts[0].value->kind, PatKind::kAny);
  EXPECT_TRUE(templates[0].stmts[0].value->var.empty());
}

}  // namespace
}  // namespace senids::semantic

// ------------------------------------------------- the built-in library

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "semantic/library.hpp"

namespace senids::semantic {
namespace {

TEST(Dsl, NoteSetsTemplateNote) {
  auto result = parse_templates(
      "template t : shell-spawn {\n  note \"Figure 6, stack path\"\n  syscall 0x0b\n}");
  auto* templates = std::get_if<std::vector<Template>>(&result);
  ASSERT_NE(templates, nullptr);
  ASSERT_EQ(templates->size(), 1u);
  EXPECT_EQ((*templates)[0].note, "Figure 6, stack path");
  EXPECT_EQ((*templates)[0].stmts.size(), 1u);  // a note is not a statement
}

TEST(Dsl, NoteErrors) {
  auto line_of = [](std::string_view text) {
    auto result = parse_templates(text);
    const auto* err = std::get_if<ParseError>(&result);
    return err ? err->line : 0;
  };
  EXPECT_EQ(line_of("template t {\n  note 7\n  loopback\n}"), 2u);
  EXPECT_EQ(line_of("template t {\n note \"a\"\n note \"b\"\n loopback\n}"), 3u);
  EXPECT_EQ(line_of("template t {\n  note \"only a note\"\n}"), 3u);  // no statements
}

TEST(Dsl, LinesInsideStringsAreCounted) {
  auto result = parse_templates("template t {\n note \"two\nlines\"\n bogus\n}");
  const auto* err = std::get_if<ParseError>(&result);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->line, 4u) << err->message;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path << " missing";
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(BuiltinLibrary, EmbeddedTextIsTheShippedFiles) {
  // The build embeds templates/*.tmpl at configure time; a stale copy
  // would make the binary disagree with the file operators read.
  EXPECT_EQ(standard_library_source(),
            read_file(SENIDS_SOURCE_DIR "/templates/standard.tmpl"));
  EXPECT_EQ(extended_library_source(),
            read_file(SENIDS_SOURCE_DIR "/templates/extended.tmpl"));
}

TEST(BuiltinLibrary, ListingIsThePaperSet) {
  // Name, threat class, arch tag and note of every built-in template, in
  // library order. Notes reach alerts and format_match output but not
  // the cache key, so the digest pins (cache_test) cannot see them.
  struct Row {
    const char* name;
    ThreatClass threat;
    const char* arch;
    const char* note;
  };
  const Row expected[] = {
      {"xor-decrypt-loop", ThreatClass::kDecryptionLoop, "x86_32",
       "Figure 2/6 xor decryption template"},
      {"add-decrypt-loop", ThreatClass::kDecryptionLoop, "x86_32",
       "equivalent-instruction decoder variant (add/sub key)"},
      {"admmutate-alt-decoder", ThreatClass::kDecryptionLoop, "x86_32",
       "Figure 7 alternate ADMmutate decryption loop"},
      {"shell-spawn-pushed-string", ThreatClass::kShellSpawn, "x86_32",
       "Figure 6 shell-spawning template (stack-built path)"},
      {"shell-spawn-embedded-string", ThreatClass::kShellSpawn, "x86_32",
       "Figure 6 shell-spawning template (embedded path)"},
      {"port-bind-shell", ThreatClass::kPortBindShell, "x86_32",
       "Figure 6 extension: shell bound to a network port"},
      {"reverse-shell", ThreatClass::kReverseShell, "x86_32", "connect-back shell (extension)"},
      {"code-red-ii-vector", ThreatClass::kCodeRedII, "x86_32",
       "Code Red II initial exploitation vector (Table 3)"},
      {"shell-spawn-stack-64", ThreatClass::kShellSpawn, "x86_64",
       "x86-64 shell spawn, stack-built path"},
      {"shell-spawn-embedded-64", ThreatClass::kShellSpawn, "x86_64",
       "x86-64 shell spawn, embedded path"},
      {"port-bind-shell-64", ThreatClass::kPortBindShell, "x86_64",
       "x86-64 shell bound to a network port"},
      {"reverse-shell-64", ThreatClass::kReverseShell, "x86_64", "x86-64 connect-back shell"},
      {"ror-decrypt-loop", ThreatClass::kDecryptionLoop, "x86_32",
       "rotate-key decoder (future-work extension)"},
  };
  const std::vector<Template> lib = make_extended_library();
  ASSERT_EQ(lib.size(), std::size(expected));
  EXPECT_EQ(make_standard_library().size(), std::size(expected) - 1);
  for (std::size_t i = 0; i < lib.size(); ++i) {
    EXPECT_EQ(lib[i].name, expected[i].name) << i;
    EXPECT_EQ(lib[i].threat, expected[i].threat) << lib[i].name;
    EXPECT_EQ(lib[i].arch, expected[i].arch) << lib[i].name;
    EXPECT_EQ(lib[i].note, expected[i].note) << lib[i].name;
  }
}

TEST(BuiltinLibrary, SubsetsAndLookupByName) {
  auto names = [](const std::vector<Template>& lib) {
    std::vector<std::string> out;
    for (const Template& t : lib) out.push_back(t.name);
    return out;
  };
  EXPECT_EQ(names(make_xor_only_library()), std::vector<std::string>{"xor-decrypt-loop"});
  EXPECT_EQ(names(make_decoder_library()),
            (std::vector<std::string>{"xor-decrypt-loop", "add-decrypt-loop",
                                      "admmutate-alt-decoder"}));
  EXPECT_EQ(library_template("ror-decrypt-loop").name, "ror-decrypt-loop");
  EXPECT_THROW((void)library_template("no-such-template"), std::out_of_range);
  // Each call returns an independent copy of the parsed set.
  std::vector<Template> a = make_standard_library();
  a[0].name = "edited";
  EXPECT_EQ(make_standard_library()[0].name, "xor-decrypt-loop");
}

std::vector<Template> parse_ok2(std::string_view text) {
  auto result = parse_templates(text);
  if (auto* err = std::get_if<ParseError>(&result)) {
    ADD_FAILURE() << "parse error at line " << err->line << ": " << err->message;
    return {};
  }
  return std::get<std::vector<Template>>(result);
}

TEST(Dsl, DecodeStatementSetsHardenedFlags) {
  auto templates = parse_ok2("template t { decode *A = xor(load(*A), K) }");
  ASSERT_EQ(templates.size(), 1u);
  const Stmt& s = templates[0].stmts[0];
  EXPECT_EQ(s.width, 8);
  EXPECT_TRUE(s.require_invertible);
}

TEST(Dsl, StoreWidthKeywords) {
  auto templates = parse_ok2(
      "template t { store byte *A = K }\n"
      "template u { store dword * = 0x7801cbd3 }\n"
      "template v { store * = 0x1 }");
  ASSERT_EQ(templates.size(), 3u);
  EXPECT_EQ(templates[0].stmts[0].width, 8);
  EXPECT_FALSE(templates[0].stmts[0].require_invertible);
  EXPECT_EQ(templates[1].stmts[0].width, 32);
  EXPECT_EQ(templates[2].stmts[0].width, 0);
}

}  // namespace
}  // namespace senids::semantic

namespace senids::semantic {
namespace {

TEST(Dsl, AdvanceWithUnboundVariableRejected) {
  auto result = parse_templates("template t { advance Z\n loopback }");
  auto* err = std::get_if<ParseError>(&result);
  ASSERT_NE(err, nullptr);
  EXPECT_NE(err->message.find("'Z'"), std::string::npos);
}

TEST(Dsl, AdvanceBoundByStoreAccepted) {
  auto result =
      parse_templates("template t { decode *A = xor(load(*A), K)\n advance A\n loopback }");
  EXPECT_TRUE(std::holds_alternative<std::vector<Template>>(result));
}

}  // namespace
}  // namespace senids::semantic
