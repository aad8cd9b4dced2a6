#include <gtest/gtest.h>

#include "semantic/pattern.hpp"

namespace senids::semantic {
namespace {

using ir::BinOp;
using ir::mk_bin;
using ir::mk_const;
using ir::mk_init;
using ir::mk_load;
using ir::mk_un;
using ir::mk_unknown;
using ir::UnOp;
using arch::RegFamily;

TEST(Pattern, AnyMatchesEverythingAndBinds) {
  ir::ExprArena arena;
  Env env;
  auto e = mk_bin(arena, BinOp::kAdd, mk_init(RegFamily::kAx), mk_const(arena, 4));
  EXPECT_TRUE(match_expr(p_any("X"), e, env));
  ASSERT_TRUE(env.contains("X"));
  EXPECT_TRUE(ir::struct_eq(env["X"], e));
}

TEST(Pattern, BindingConsistencyEnforced) {
  ir::ExprArena arena;
  // add(A, A) must only match when both operands are identical. (xor of
  // identical operands would have been folded to 0 by the simplifier.)
  auto pat = p_bin(BinOp::kAdd, p_any("A"), p_any("A"));
  Env env1;
  auto load0 = [&arena] { return mk_load(arena, mk_init(RegFamily::kAx), 8, 0); };
  EXPECT_TRUE(match_expr(pat, mk_bin(arena, BinOp::kAdd, load0(), load0()), env1));
  Env env2;
  // Different generations: not identical, must not match.
  auto load1 = mk_load(arena, mk_init(RegFamily::kAx), 8, 1);
  EXPECT_FALSE(match_expr(pat, mk_bin(arena, BinOp::kAdd, load0(), load1), env2));
}

TEST(Pattern, ConstRequiresConstant) {
  ir::ExprArena arena;
  Env env;
  EXPECT_TRUE(match_expr(p_const("K"), mk_const(arena, 0x95), env));
  EXPECT_FALSE(match_expr(p_const("K2"), mk_init(RegFamily::kAx), env));
}

TEST(Pattern, ConstNonzeroRejectsZero) {
  ir::ExprArena arena;
  Env env;
  EXPECT_FALSE(match_expr(p_const("K", /*nonzero=*/true), mk_const(arena, 0), env));
  EXPECT_TRUE(match_expr(p_const("K", /*nonzero=*/false), mk_const(arena, 0), env));
}

TEST(Pattern, FixedConstExactMatch) {
  ir::ExprArena arena;
  Env env;
  EXPECT_TRUE(match_expr(p_fixed(0x6e69622f), mk_const(arena, 0x6e69622f), env));
  EXPECT_FALSE(match_expr(p_fixed(0x6e69622f), mk_const(arena, 0x6e69622e), env));
}

TEST(Pattern, LoadMatchesAddrRecursively) {
  ir::ExprArena arena;
  Env env;
  auto pat = p_load(p_any("A"));
  EXPECT_TRUE(match_expr(pat, mk_load(arena, mk_init(RegFamily::kSi), 8, 3), env));
  EXPECT_TRUE(ir::struct_eq(env["A"], mk_init(RegFamily::kSi)));
  EXPECT_FALSE(match_expr(pat, mk_const(arena, 5), env));
}

TEST(Pattern, BinMatchesCommutatively) {
  ir::ExprArena arena;
  // Pattern xor(load(*), K) must match Xor whichever side the load is on
  // after canonicalization.
  auto pat = p_bin(BinOp::kXor, p_load(p_any("A")), p_const("K"));
  auto load = mk_load(arena, mk_init(RegFamily::kAx), 8, 0);
  Env env1, env2;
  EXPECT_TRUE(
      match_expr(pat, mk_bin(arena, BinOp::kXor, load, mk_const(arena, 0x95)), env1));
  EXPECT_TRUE(
      match_expr(pat, mk_bin(arena, BinOp::kXor, mk_const(arena, 0x95), load), env2));
  EXPECT_TRUE(ir::struct_eq(env1["K"], mk_const(arena, 0x95)));
}

TEST(Pattern, BinNonCommutativeOrderMatters) {
  ir::ExprArena arena;
  auto pat = p_bin(BinOp::kShl, p_any("X"), p_fixed(4));
  Env env;
  EXPECT_TRUE(match_expr(
      pat, mk_bin(arena, BinOp::kShl, mk_init(RegFamily::kAx), mk_const(arena, 4)), env));
  Env env2;
  auto shl5 = mk_bin(arena, BinOp::kShl, mk_init(RegFamily::kAx), mk_const(arena, 5));
  EXPECT_FALSE(match_expr(pat, shl5, env2));
}

TEST(Pattern, BinWrongOperatorFails) {
  ir::ExprArena arena;
  auto pat = p_bin(BinOp::kXor, p_any(), p_any());
  Env env;
  auto no_const =
      mk_bin(arena, BinOp::kOr, mk_init(RegFamily::kAx), mk_unknown(arena, 0));
  EXPECT_FALSE(match_expr(pat, no_const, env));
}

TEST(Pattern, UnMatches) {
  ir::ExprArena arena;
  auto pat = p_un(UnOp::kNot, p_load(p_any("A")));
  Env env;
  EXPECT_TRUE(match_expr(
      pat, mk_un(arena, UnOp::kNot, mk_load(arena, mk_init(RegFamily::kDi), 8, 0)), env));
  EXPECT_FALSE(match_expr(pat, mk_load(arena, mk_init(RegFamily::kDi), 8, 0), env));
}

TEST(Pattern, TransformMatchesOrAndNotTree) {
  ir::ExprArena arena;
  // dec = And(Or(load,k), Not(And(load,k))) — the ADMmutate alternate
  // decode expression.
  auto load = mk_load(arena, mk_init(RegFamily::kSi), 8, 0);
  auto k = mk_const(arena, 0x5a);
  auto value = mk_bin(arena, BinOp::kAnd, mk_bin(arena, BinOp::kOr, load, k),
                      mk_un(arena, UnOp::kNot, mk_bin(arena, BinOp::kAnd, load, k)));
  auto pat = p_transform(p_load(p_any("A")), {BinOp::kOr, BinOp::kAnd}, true);
  Env env;
  EXPECT_TRUE(match_expr(pat, value, env));
  EXPECT_TRUE(ir::struct_eq(env["A"], mk_init(RegFamily::kSi)));
}

TEST(Pattern, TransformRejectsDisallowedOperator) {
  ir::ExprArena arena;
  auto load = mk_load(arena, mk_init(RegFamily::kSi), 8, 0);
  auto value = mk_bin(arena, BinOp::kXor, load, mk_const(arena, 0x5a));
  auto pat = p_transform(p_load(p_any("A")), {BinOp::kOr, BinOp::kAnd}, true);
  Env env;
  EXPECT_FALSE(match_expr(pat, value, env));
}

TEST(Pattern, TransformRequiresBaseLeaf) {
  ir::ExprArena arena;
  // Pure-constant tree: no load leaf -> no match.
  auto value = mk_bin(arena, BinOp::kOr, mk_unknown(arena, 1), mk_const(arena, 0x5a));
  auto pat = p_transform(p_load(p_any("A")), {BinOp::kOr, BinOp::kAnd}, true);
  Env env;
  EXPECT_FALSE(match_expr(pat, value, env));
}

TEST(Pattern, TransformRequiresAtLeastOneOp) {
  ir::ExprArena arena;
  // A bare load is not a transformation.
  auto load = mk_load(arena, mk_init(RegFamily::kSi), 8, 0);
  auto pat = p_transform(p_load(p_any("A")), {BinOp::kOr, BinOp::kAnd}, true);
  Env env;
  EXPECT_FALSE(match_expr(pat, load, env));
}

TEST(Pattern, TransformRequiresConstLeafWhenAsked) {
  ir::ExprArena arena;
  auto load = mk_load(arena, mk_init(RegFamily::kSi), 8, 0);
  auto value = mk_bin(arena, BinOp::kOr, load, mk_unknown(arena, 7));
  auto strict = p_transform(p_load(p_any("A")), {BinOp::kOr}, true, /*require_const=*/true);
  auto loose = p_transform(p_load(p_any("A")), {BinOp::kOr}, true, /*require_const=*/false);
  Env e1, e2;
  EXPECT_FALSE(match_expr(strict, value, e1));
  // The unknown leaf is neither const nor base -> the walk itself fails.
  EXPECT_FALSE(match_expr(loose, value, e2));
  // With a constant second leaf, the strict form matches.
  Env e3;
  EXPECT_TRUE(
      match_expr(strict, mk_bin(arena, BinOp::kOr, load, mk_const(arena, 3)), e3));
}

TEST(Pattern, TransformBaseBindingConsistent) {
  ir::ExprArena arena;
  // Two different loads in one tree must not unify to one variable.
  auto l1 = mk_load(arena, mk_init(RegFamily::kSi), 8, 0);
  auto l2 = mk_load(arena, mk_init(RegFamily::kDi), 8, 0);
  auto value = mk_bin(arena, BinOp::kAnd,
                      mk_bin(arena, BinOp::kOr, l1, mk_const(arena, 1)),
                      mk_bin(arena, BinOp::kOr, l2, mk_const(arena, 2)));
  auto pat = p_transform(p_load(p_any("A")), {BinOp::kOr, BinOp::kAnd}, true);
  Env env;
  EXPECT_FALSE(match_expr(pat, value, env));
}

TEST(Pattern, RorDecoderTransform) {
  ir::ExprArena arena;
  auto load = mk_load(arena, mk_init(RegFamily::kBx), 8, 0);
  auto value = mk_bin(arena, BinOp::kRor, load, mk_const(arena, 3));
  auto pat = p_transform(p_load(p_any("A")), {BinOp::kRol, BinOp::kRor}, false);
  Env env;
  EXPECT_TRUE(match_expr(pat, value, env));
}

TEST(Pattern, ToStringRenders) {
  auto pat = p_bin(BinOp::kXor, p_load(p_any("A")), p_const("K"));
  EXPECT_EQ(to_string(pat), "xor(load(*:A), const!0:K)");
  EXPECT_EQ(to_string(p_fixed(0x10)), "0x10");
  auto tr = p_transform(p_load(p_any("A")), {BinOp::kOr, BinOp::kAnd}, true);
  EXPECT_EQ(to_string(tr), "transform<or|and|not>(load(*:A))");
}

TEST(Pattern, NullSafety) {
  ir::ExprArena arena;
  Env env;
  EXPECT_FALSE(match_expr(nullptr, mk_const(arena, 1), env));
  EXPECT_FALSE(match_expr(p_any(), nullptr, env));
}

}  // namespace
}  // namespace senids::semantic
