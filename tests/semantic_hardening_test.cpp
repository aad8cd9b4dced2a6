// Regression tests for the false-positive hardening constraints in the
// template matcher. Each constraint was added to kill a concrete
// coincidental match observed in the Section-5.4 benign corpus; these
// tests pin both directions (real decoders still match, the FP shapes do
// not).
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

#include "gen/emitter.hpp"
#include "ir/lifter.hpp"
#include "semantic/analyzer.hpp"
#include "semantic/library.hpp"
#include "arch/scan.hpp"

namespace senids::semantic {
namespace {

using gen::Asm;
using gen::R32;
using gen::R8;
using util::Bytes;

std::optional<MatchResult> run_match(const Template& t, const Bytes& code,
                                     std::size_t entry = 0) {
  auto trace = arch::execution_trace(code, entry);
  auto lifted = ir::lift(trace);
  LiftedCode lc{&trace, &lifted.events, code, lifted.arena.get()};
  return match_template(t, lc);
}

bool any_decoder_match(const Bytes& code) {
  for (const auto& t : make_decoder_library()) {
    if (run_match(t, code)) return true;
  }
  return false;
}

// ------------------------------------------------- store width == 8 bits

TEST(Hardening, DwordStoreRejected) {
  // add dword [ecx], imm32 ; dec ecx ; ... ; jcc back — observed FP shape.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.raw({std::initializer_list<std::uint8_t>{0x81, 0x01, 0x9c, 0x26, 0x36, 0x12}});
  // ^ add dword ptr [ecx], 0x1236269c
  a.inc_r32(R32::ecx);
  a.dec_r32(R32::edx);
  a.jnz(head);
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

// ------------------------------------------- stride equals element size

TEST(Hardening, StrideMismatchRejected) {
  // byte store but the pointer advances by 4 (lodsd-style walk).
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.alu_mem8_imm8(6, R32::esi, 0x5a);  // xor byte [esi], 0x5a
  a.add_r32_imm(R32::esi, 4);
  a.dec_r32(R32::ecx);
  a.jnz(head);
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

// --------------------------------------- pointer survives to the back edge

TEST(Hardening, PointerClobberedBeforeBranchRejected) {
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.alu_mem8_imm8(6, R32::esi, 0x5a);
  a.inc_r32(R32::esi);
  a.mov_r32_imm32(R32::esi, 0x1234);  // pointer overwritten: next iteration broken
  a.dec_r32(R32::ecx);
  a.jnz(head);
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

// ----------------------------------------------- advance is a pure step

TEST(Hardening, MemWritingAdvanceRejected) {
  // movsb advances edi but also overwrites the "decoded" byte.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.raw8(0xC0);  // rol byte ptr [edi], 0xf  => C0 0F 0F
  a.raw8(0x0F);
  a.raw8(0x0F);
  a.raw8(0xA4);  // movsb
  a.dec_r32(R32::ecx);
  a.jnz(head);
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

// -------------------------------------------------------- loop discipline

TEST(Hardening, OverflowConditionRejected) {
  // jo-terminated "loop" — no real engine branches on overflow.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.alu_mem8_imm8(0, R32::ebx, 0x3f);  // add byte [ebx], 0x3f
  a.dec_r32(R32::ebx);
  a.dec_r32(R32::ecx);
  a.jcc(0x0, head);  // jo
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

TEST(Hardening, FlagSourceMustBeRegisterCount) {
  // The nearest flag-setter before the jnz is the memory add itself, not
  // a register counter.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.inc_r32(R32::esi);                 // advance first
  a.alu_mem8_imm8(0, R32::esi, 0x3f);  // add byte [esi], 0x3f (sets flags last)
  a.jnz(head);
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

// ----------------------------------------- counter and pointer separation

TEST(Hardening, PointerAsLoopCounterRejected) {
  // dec edi both advances the pointer and feeds the branch condition.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.alu_mem8_imm8(5, R32::edi, 0xe9);  // sub byte [edi], 0xe9
  a.dec_r32(R32::edi);
  a.jcc(0x8, head);  // js
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

TEST(Hardening, LoopClassWithEcxPointerRejected) {
  // loop decrements ecx; using ecx as the decode pointer conflates the
  // two roles.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.alu_mem8_imm8(0, R32::ecx, 0x2f);  // add byte [ecx], 0x2f
  a.dec_r32(R32::ecx);                 // "advance"
  a.loop_(head);
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

// ------------------------------------------------ invertibility of f(v)

TEST(Hardening, NonInvertibleOrTransformRejected) {
  // or byte [esi], k destroys information: not a decoder.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.alu_mem8_imm8(1, R32::esi, 0x40);  // or byte [esi], 0x40
  a.inc_r32(R32::esi);
  a.dec_r32(R32::ecx);
  a.jnz(head);
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

TEST(Hardening, NonInvertibleAndTransformRejected) {
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.alu_mem8_imm8(4, R32::esi, 0x0f);  // and byte [esi], 0x0f
  a.inc_r32(R32::esi);
  a.dec_r32(R32::ecx);
  a.jnz(head);
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

TEST(Hardening, InvertibleNotTransformStillMatches) {
  // not byte [esi] is a bijection built from the alt template's operator
  // set — a legitimate (if degenerate) decode transform... but it has no
  // constant leaf, so the alternate template's key requirement rejects
  // it. Pin that behaviour.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.raw({std::initializer_list<std::uint8_t>{0xF6, 0x16}});  // not byte ptr [esi]
  a.inc_r32(R32::esi);
  a.dec_r32(R32::ecx);
  a.jnz(head);
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

// ------------------------------------------ real decoders still match

TEST(Hardening, CanonicalDecodersStillMatch) {
  // xor via imm, xor via register key, additive, and the or/and/not xor.
  {
    Asm a;
    auto head = a.new_label();
    a.bind(head);
    a.xor_mem8_imm8(R32::esi, 0x42);
    a.inc_r32(R32::esi);
    a.loop_(head);
    EXPECT_TRUE(any_decoder_match(a.finish()));
  }
  {
    Asm a;
    auto head = a.new_label();
    a.bind(head);
    a.alu_mem8_imm8(0, R32::edi, 0x11);  // add byte [edi], 0x11
    a.inc_r32(R32::edi);
    a.dec_r32(R32::ecx);
    a.jnz(head);
    EXPECT_TRUE(any_decoder_match(a.finish()));
  }
  {
    // The Figure-7 or/and/not xor-equivalent is invertible and must pass.
    Asm a;
    auto head = a.new_label();
    a.bind(head);
    a.mov_r8_mem(R8::al, R32::esi);
    a.alu_r8_imm8(1, R8::al, 0x5a);
    a.mov_r8_mem(R8::bl, R32::esi);
    a.alu_r8_imm8(4, R8::bl, 0x5a);
    a.not_r8(R8::bl);
    a.alu_r8_r8(4, R8::al, R8::bl);
    a.mov_mem_r8(R32::esi, 0, R8::al);
    a.inc_r32(R32::esi);
    a.loop_(head);
    EXPECT_TRUE(any_decoder_match(a.finish()));
  }
}

TEST(Hardening, RorDecoderMatchesExtensionTemplate) {
  // The rotate template lives in the extended (opt-in) library.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.mov_r8_mem(R8::al, R32::esi);
  a.shift_r8_imm8(1, R8::al, 3);  // ror al, 3
  a.mov_mem_r8(R32::esi, 0, R8::al);
  a.inc_r32(R32::esi);
  a.loop_(head);
  Bytes code = a.finish();
  EXPECT_FALSE(any_decoder_match(code));  // not in the standard decoder set
  EXPECT_TRUE(run_match(library_template("ror-decrypt-loop"), code).has_value());
}

TEST(Hardening, BackwardWalkingDecoderStillMatches) {
  // Decoders may walk downward (dec pointer) with a separate counter.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.xor_mem8_imm8(R32::esi, 0x33);
  a.dec_r32(R32::esi);
  a.dec_r32(R32::ecx);
  a.jnz(head);
  EXPECT_TRUE(any_decoder_match(a.finish()));
}

}  // namespace
}  // namespace senids::semantic

namespace senids::semantic {
namespace {

// Constraints added after the 566 MB false-positive sweep; each pins the
// concrete coincidental shape that survived the earlier hardening.

TEST(Hardening, KeyFromPointerRegisterRejected) {
  // add byte [edx], dh — the "key" is carved out of the walking pointer.
  Asm a;
  auto head = a.new_label();
  a.mov_r32_imm32(R32::edx, 0x47549ba2);
  a.bind(head);
  a.raw({std::initializer_list<std::uint8_t>{0x00, 0x32}});  // add [edx], dh
  a.dec_r32(R32::edx);
  a.dec_r32(R32::ecx);
  a.jnz(head);
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

TEST(Hardening, JecxzBackedgeRejected) {
  // jecxz loops while ecx is zero: not a count-down loop.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.alu_mem8_imm8(0, R32::esi, 0x21);  // add byte [esi], 0x21
  a.inc_r32(R32::esi);
  a.jecxz(head);
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

TEST(Hardening, StringOpAdvanceRejected) {
  // cmpsb advances esi as a comparison side effect, not a pointer walk.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.xor_mem8_imm8(R32::esi, 0xa6);
  a.raw8(0xA6);  // cmpsb
  a.loop_(head);
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

TEST(Hardening, RegisterKeyFromOtherFamilyStillMatches) {
  // Sanity: a key in a register of a *different* family is legitimate.
  Asm a;
  auto head = a.new_label();
  a.mov_r8_imm8(R8::bl, 0x42);
  a.bind(head);
  a.xor_mem8_r8(R32::esi, R8::bl);
  a.inc_r32(R32::esi);
  a.loop_(head);
  EXPECT_TRUE(any_decoder_match(a.finish()));
}

}  // namespace
}  // namespace senids::semantic

namespace senids::semantic {
namespace {

TEST(Hardening, GarbageCounterInitRejected) {
  // The counter register holds a junk-derived (non-constant-foldable)
  // value at loop entry: not a plausible length.
  Asm a;
  auto head = a.new_label();
  a.mov_r32_mem(R32::ecx, R32::esp);  // ecx = some runtime value
  a.bind(head);
  a.xor_mem8_imm8(R32::esi, 0x42);
  a.inc_r32(R32::esi);
  a.loop_(head);
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

TEST(Hardening, HugeCounterInitRejected) {
  Asm a;
  auto head = a.new_label();
  a.mov_r32_imm32(R32::ecx, 0x40000000);  // 1 GiB "payload": implausible
  a.bind(head);
  a.xor_mem8_imm8(R32::esi, 0x42);
  a.inc_r32(R32::esi);
  a.loop_(head);
  EXPECT_FALSE(any_decoder_match(a.finish()));
}

TEST(Hardening, UninitializedCounterStillAccepted) {
  // Figure 1 shape: the snippet assumes the caller set ecx.
  Asm a;
  auto head = a.new_label();
  a.bind(head);
  a.xor_mem8_imm8(R32::eax, 0x95);
  a.inc_r32(R32::eax);
  a.loop_(head);
  EXPECT_TRUE(any_decoder_match(a.finish()));
}

TEST(Hardening, ConstCounterInitAccepted) {
  Asm a;
  auto head = a.new_label();
  a.mov_r32_imm32(R32::ecx, 128);
  a.bind(head);
  a.xor_mem8_imm8(R32::esi, 0x42);
  a.inc_r32(R32::esi);
  a.loop_(head);
  EXPECT_TRUE(any_decoder_match(a.finish()));
}

// ------------------------------------------- loope/loopne with a known ZF

/// Close a loop back to `head` with loope (0xE1) or loopne (0xE0).
void loop_zf(Asm& a, std::uint8_t opcode, std::size_t head) {
  a.raw8(opcode);
  a.raw8(static_cast<std::uint8_t>(static_cast<std::int8_t>(head - (a.size() + 1))));
}

Bytes decoder_closed_by(std::uint8_t opcode) {
  // xor byte [esi], 0x42 ; inc esi ; mov al, 0x27 ; add al, 0x69 ; loop?
  // The add leaves al = 0x90, so ZF is clear on every pass.
  Asm a;
  const std::size_t head = a.size();
  a.xor_mem8_imm8(R32::esi, 0x42);
  a.inc_r32(R32::esi);
  a.mov_r8_imm8(R8::al, 0x27);
  a.alu_r8_imm8(0, R8::al, 0x69);
  loop_zf(a, opcode, head);
  return a.finish();
}

TEST(Hardening, LoopeAfterNonzeroResultRejected) {
  // loope continues only while ZF is set: with a constant nonzero result
  // last setting the flags it falls through on the first pass.
  EXPECT_FALSE(any_decoder_match(decoder_closed_by(0xE1)));
}

TEST(Hardening, LoopneAfterNonzeroResultStillMatches) {
  EXPECT_TRUE(any_decoder_match(decoder_closed_by(0xE0)));
}

TEST(Hardening, LoopeAfterUnknownResultStillMatches) {
  // ZF comes from `inc esi` over an unknown pointer: undecided, accepted.
  Asm a;
  const std::size_t head = a.size();
  a.xor_mem8_imm8(R32::esi, 0x42);
  a.inc_r32(R32::esi);
  loop_zf(a, 0xE1, head);
  EXPECT_TRUE(any_decoder_match(a.finish()));
}

TEST(Hardening, BenignBase64FrameDoesNotAlert) {
  // The base64-decoded body of a benign 756-byte HTTP response (random
  // bytes). Traced from offset 455 it reads `dec byte [esi] ... inc esi
  // ... add al, 0x69 ; loope`, which add-decrypt-loop matched before the
  // loope rule above.
  const std::string path =
      std::string(SENIDS_SOURCE_DIR) + "/tests/data/benign_base64_loope_frame.bin";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing " << path;
  const Bytes frame((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_EQ(frame.size(), 516u);
  const SemanticAnalyzer analyzer(make_standard_library());
  EXPECT_TRUE(analyzer.analyze(frame).empty());
  const auto trace = arch::execution_trace(frame, 455);
  ASSERT_GE(trace.size(), 16u);
  EXPECT_EQ(trace[15].mnemonic, arch::Mnemonic::kLoope);
}

// ---------------------------------------------------- search attempt cap

/// The matcher gives up after visiting 2^20 (statement, event) pairs. The
/// template here binds X to a register write, skips two more writes and
/// wants a store of X; the trace loads eax with `writes` distinct
/// constants, then writes ecx and edx and stores eax. The one match binds
/// the last eax load, which a left-to-right search reaches only after
/// failing every earlier binding of X, and the store statement's scans
/// over register-write events (which its event precheck rejects) make up
/// most of the pairs visited on the way.
std::optional<MatchResult> attempt_cap_search(std::size_t writes) {
  Asm a;
  for (std::size_t i = 0; i < writes; ++i) {
    a.mov_r32_imm32(R32::eax, static_cast<std::uint32_t>(0x1000 + i));
  }
  a.mov_r32_imm32(R32::ecx, 1);
  a.mov_r32_imm32(R32::edx, 2);
  a.mov_mem_r32(R32::ebx, 0, R32::eax);
  Template t;
  t.name = "attempt-cap";
  t.stmts = {st_reg_write(p_any("X")), st_reg_write(p_any()), st_reg_write(p_any()),
             st_mem_write(p_any(), p_any("X"))};
  return run_match(t, a.finish());
}

TEST(Hardening, AttemptCapReachedFindsNothing) {
  // 68 loads: the search ends inside the cap and finds the match.
  const auto found = attempt_cap_search(68);
  ASSERT_TRUE(found);
  EXPECT_EQ(found->matched_events, (std::vector<std::size_t>{67, 68, 69, 70}));
  EXPECT_EQ(ir::to_string(found->bindings.at("X")), "0x1043");
  // 69 loads: the cap is reached before the last load is tried, so the
  // search gives up although a match exists. Counting only the pairs
  // that pass the event precheck would move this boundary.
  EXPECT_FALSE(attempt_cap_search(69));
}

}  // namespace
}  // namespace senids::semantic
