#include <gtest/gtest.h>

#include "ir/expr.hpp"
#include "util/prng.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define SENIDS_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SENIDS_TEST_ASAN 1
#endif
#endif
#ifdef SENIDS_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace senids::ir {
namespace {

using arch::RegFamily;

TEST(ExprArena, AllocatesNothingUntilFirstUse) {
  ExprArena arena;
  EXPECT_EQ(arena.capacity(), 0u);
  mk_const(arena, 1);
  EXPECT_GT(arena.capacity(), 0u);
}

TEST(ExprArena, RecycleReusesChunks) {
  ExprArena arena;
  auto fill = [&arena] {
    ExprPtr sum = mk_init(RegFamily::kAx);
    for (std::uint32_t i = 0; i < 2000; ++i) {
      sum = mk_bin(arena, BinOp::kXor, sum, mk_load(arena, mk_const(arena, i), 8, 0));
    }
    return sum;
  };
  const std::string first = to_string(fill()).substr(0, 64);
  const std::size_t grown = arena.capacity();
  EXPECT_GT(grown, 2000 * sizeof(Expr));  // spans several chunks
  for (int round = 0; round < 3; ++round) {
    arena.recycle();
    EXPECT_EQ(to_string(fill()).substr(0, 64), first);
    EXPECT_EQ(arena.capacity(), grown) << "round " << round;
  }
}

TEST(ExprArena, InitNodesAreProcessWide) {
  EXPECT_EQ(mk_init(RegFamily::kSi), mk_init(RegFamily::kSi));
  EXPECT_NE(mk_init(RegFamily::kSi), mk_init(RegFamily::kDi));
  EXPECT_EQ(mk_init(RegFamily::kR15)->family, RegFamily::kR15);
}

TEST(ExprArena, RecycleHandsOutTheSameStorageAgain) {
  ExprArena arena;
  const ExprPtr old = mk_const(arena, 7);
  arena.recycle();
#ifdef SENIDS_TEST_ASAN
  // Poisoned until handed out again: reading `old` now is reported.
  EXPECT_TRUE(__asan_address_is_poisoned(old));
#endif
  const ExprPtr fresh = mk_const(arena, 8);
  EXPECT_EQ(fresh, old);
#ifdef SENIDS_TEST_ASAN
  EXPECT_FALSE(__asan_address_is_poisoned(fresh));
#endif
  EXPECT_EQ(fresh->cval, 8u);
}

TEST(Expr, QwordLoadModelsThirtyTwoBits) {
  ExprArena arena;
  EXPECT_EQ(mk_load(arena, mk_init(RegFamily::kSp), 64, 0)->value_bits, 32);
  EXPECT_EQ(mk_load(arena, mk_init(RegFamily::kSp), 16, 0)->value_bits, 16);
}

TEST(Expr, ConstFolding) {
  ExprArena arena;
  auto e = mk_bin(arena, BinOp::kAdd, mk_const(arena, 0x31), mk_const(arena, 0x64));
  std::uint32_t v;
  ASSERT_TRUE(is_const(e, &v));
  EXPECT_EQ(v, 0x95u);
}

TEST(Expr, FoldsAllOperators) {
  ExprArena arena;
  struct Case {
    BinOp op;
    std::uint32_t a, b, want;
  };
  const Case cases[] = {
      {BinOp::kAdd, 7, 3, 10},
      {BinOp::kSub, 7, 3, 4},
      {BinOp::kXor, 0xff, 0x0f, 0xf0},
      {BinOp::kOr, 0xf0, 0x0f, 0xff},
      {BinOp::kAnd, 0xfc, 0x0f, 0x0c},
      {BinOp::kShl, 1, 4, 16},
      {BinOp::kShr, 16, 4, 1},
      {BinOp::kSar, 0x80000000u, 31, 0xffffffffu},
      {BinOp::kRol, 0x80000001u, 1, 0x00000003u},
      {BinOp::kRor, 0x00000003u, 1, 0x80000001u},
      {BinOp::kMul, 6, 7, 42},
  };
  for (const Case& c : cases) {
    std::uint32_t v = 0;
    ASSERT_TRUE(
        is_const(mk_bin(arena, c.op, mk_const(arena, c.a), mk_const(arena, c.b)), &v))
        << binop_name(c.op);
    EXPECT_EQ(v, c.want) << binop_name(c.op);
  }
}

TEST(Expr, SubConstNormalizesToAdd) {
  ExprArena arena;
  // sub x, 1  ==  add x, -1 : the advance-pattern normalization.
  auto x = mk_init(RegFamily::kAx);
  auto s = mk_bin(arena, BinOp::kSub, x, mk_const(arena, 1));
  ASSERT_EQ(s->kind, ExprKind::kBin);
  EXPECT_EQ(s->bop, BinOp::kAdd);
  std::uint32_t v;
  ASSERT_TRUE(is_const(s->rhs, &v));
  EXPECT_EQ(v, 0xffffffffu);
}

TEST(Expr, AddChainFolds) {
  ExprArena arena;
  auto x = mk_init(RegFamily::kAx);
  auto e = mk_bin(arena, BinOp::kAdd, mk_bin(arena, BinOp::kAdd, x, mk_const(arena, 5)),
                  mk_const(arena, 7));
  ASSERT_EQ(e->kind, ExprKind::kBin);
  std::uint32_t v;
  ASSERT_TRUE(is_const(e->rhs, &v));
  EXPECT_EQ(v, 12u);
  EXPECT_TRUE(struct_eq(e->lhs, x));
}

TEST(Expr, IncThenDecCancels) {
  ExprArena arena;
  auto x = mk_init(RegFamily::kCx);
  auto e = mk_bin(arena, BinOp::kAdd, mk_bin(arena, BinOp::kAdd, x, mk_const(arena, 1)),
                  mk_const(arena, 0xffffffffu));
  EXPECT_TRUE(struct_eq(e, x));
}

TEST(Expr, Identities) {
  ExprArena arena;
  auto x = mk_init(RegFamily::kBx);
  EXPECT_TRUE(struct_eq(mk_bin(arena, BinOp::kAdd, x, mk_const(arena, 0)), x));
  EXPECT_TRUE(struct_eq(mk_bin(arena, BinOp::kXor, x, mk_const(arena, 0)), x));
  EXPECT_TRUE(struct_eq(mk_bin(arena, BinOp::kOr, x, mk_const(arena, 0)), x));
  EXPECT_TRUE(struct_eq(mk_bin(arena, BinOp::kAnd, x, mk_const(arena, 0xffffffffu)), x));
  EXPECT_TRUE(struct_eq(mk_bin(arena, BinOp::kMul, x, mk_const(arena, 1)), x));
  EXPECT_TRUE(struct_eq(mk_bin(arena, BinOp::kShl, x, mk_const(arena, 0)), x));
}

TEST(Expr, Annihilators) {
  ExprArena arena;
  auto x = mk_init(RegFamily::kBx);
  std::uint32_t v;
  ASSERT_TRUE(is_const(mk_bin(arena, BinOp::kAnd, x, mk_const(arena, 0)), &v));
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(is_const(mk_bin(arena, BinOp::kMul, x, mk_const(arena, 0)), &v));
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(is_const(mk_bin(arena, BinOp::kXor, x, x), &v));
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(is_const(mk_bin(arena, BinOp::kSub, x, x), &v));
  EXPECT_EQ(v, 0u);
}

TEST(Expr, SelfAbsorption) {
  ExprArena arena;
  auto x = mk_init(RegFamily::kDx);
  EXPECT_TRUE(struct_eq(mk_bin(arena, BinOp::kAnd, x, x), x));
  EXPECT_TRUE(struct_eq(mk_bin(arena, BinOp::kOr, x, x), x));
}

TEST(Expr, CommutativeCanonicalization) {
  ExprArena arena;
  auto a = mk_init(RegFamily::kAx);
  auto b = mk_init(RegFamily::kBx);
  EXPECT_TRUE(
      struct_eq(mk_bin(arena, BinOp::kXor, a, b), mk_bin(arena, BinOp::kXor, b, a)));
  EXPECT_TRUE(
      struct_eq(mk_bin(arena, BinOp::kAdd, a, b), mk_bin(arena, BinOp::kAdd, b, a)));
  // Constant always lands on the right.
  auto e = mk_bin(arena, BinOp::kXor, mk_const(arena, 5), a);
  EXPECT_EQ(e->rhs->kind, ExprKind::kConst);
}

TEST(Expr, NotNotCancels) {
  ExprArena arena;
  auto x = mk_init(RegFamily::kAx);
  EXPECT_TRUE(struct_eq(mk_un(arena, UnOp::kNot, mk_un(arena, UnOp::kNot, x)), x));
}

TEST(Expr, UnaryConstFolds) {
  ExprArena arena;
  std::uint32_t v;
  ASSERT_TRUE(is_const(mk_un(arena, UnOp::kNot, mk_const(arena, 0x0f)), &v));
  EXPECT_EQ(v, 0xfffffff0u);
  ASSERT_TRUE(is_const(mk_un(arena, UnOp::kNeg, mk_const(arena, 1)), &v));
  EXPECT_EQ(v, 0xffffffffu);
}

TEST(Expr, CoveringMaskOnLoadDrops) {
  ExprArena arena;
  auto load8 = mk_load(arena, mk_init(RegFamily::kAx), 8, 0);
  EXPECT_TRUE(struct_eq(mk_bin(arena, BinOp::kAnd, load8, mk_const(arena, 0xff)), load8));
  // A narrower mask stays.
  auto masked = mk_bin(arena, BinOp::kAnd, load8, mk_const(arena, 0x0f));
  EXPECT_EQ(masked->kind, ExprKind::kBin);
}

TEST(Expr, ValueBitsPropagation) {
  ExprArena arena;
  auto load8 = mk_load(arena, mk_init(RegFamily::kAx), 8, 0);
  EXPECT_EQ(load8->value_bits, 8);
  auto x = mk_bin(arena, BinOp::kXor, load8, mk_const(arena, 0x95));
  EXPECT_EQ(x->value_bits, 8);
  // And with the covering mask of a computed 8-bit value is dropped.
  EXPECT_TRUE(struct_eq(mk_bin(arena, BinOp::kAnd, x, mk_const(arena, 0xff)), x));
}

TEST(Expr, SubRegisterMergeReadsBack) {
  ExprArena arena;
  // Writing BL over unknown EBX then reading BL must give back the byte:
  // And(Or(And(init, ~0xff), 0x95), 0xff) -> 0x95.
  auto init = mk_init(RegFamily::kBx);
  auto cleared = mk_bin(arena, BinOp::kAnd, init, mk_const(arena, 0xffffff00u));
  auto merged = mk_bin(arena, BinOp::kOr, cleared, mk_const(arena, 0x95));
  auto read = mk_bin(arena, BinOp::kAnd, merged, mk_const(arena, 0xff));
  std::uint32_t v;
  ASSERT_TRUE(is_const(read, &v));
  EXPECT_EQ(v, 0x95u);
}

TEST(Expr, AndChainMergesMasks) {
  ExprArena arena;
  auto x = mk_init(RegFamily::kAx);
  auto inner = mk_bin(arena, BinOp::kAnd, x, mk_const(arena, 0xff00));
  auto e = mk_bin(arena, BinOp::kAnd, inner, mk_const(arena, 0x0ff0));
  ASSERT_EQ(e->kind, ExprKind::kBin);
  std::uint32_t v;
  ASSERT_TRUE(is_const(e->rhs, &v));
  EXPECT_EQ(v, 0x0f00u);
}

TEST(Expr, LoadsDifferByGeneration) {
  ExprArena arena;
  auto addr = mk_init(RegFamily::kSi);
  auto l0 = mk_load(arena, addr, 8, 0);
  auto l1 = mk_load(arena, addr, 8, 1);
  EXPECT_FALSE(struct_eq(l0, l1));
  EXPECT_TRUE(struct_eq(l0, mk_load(arena, addr, 8, 0)));
}

TEST(Expr, LoadsDifferByWidth) {
  ExprArena arena;
  auto addr = mk_init(RegFamily::kSi);
  EXPECT_FALSE(struct_eq(mk_load(arena, addr, 8, 0), mk_load(arena, addr, 32, 0)));
}

TEST(Expr, HashConsistentWithEquality) {
  ExprArena arena;
  auto load = mk_load(arena, mk_init(RegFamily::kAx), 8, 0);
  auto a1 = mk_bin(arena, BinOp::kXor, load, mk_const(arena, 0x95));
  auto a2 = mk_bin(arena, BinOp::kXor, mk_const(arena, 0x95), load);
  EXPECT_TRUE(struct_eq(a1, a2));
  EXPECT_EQ(expr_hash(a1), expr_hash(a2));
}

TEST(Expr, UnknownsAreDistinct) {
  ExprArena arena;
  EXPECT_FALSE(struct_eq(mk_unknown(arena, 0), mk_unknown(arena, 1)));
  EXPECT_TRUE(struct_eq(mk_unknown(arena, 3), mk_unknown(arena, 3)));
}

TEST(Expr, ToStringRenders) {
  ExprArena arena;
  auto e = mk_bin(arena, BinOp::kXor, mk_load(arena, mk_init(RegFamily::kAx), 8, 0),
                  mk_const(arena, 0x95));
  EXPECT_EQ(to_string(e), "xor(load8@0(init(eax)), 0x95)");
}

TEST(Expr, ShiftByConstZeroIsIdentity) {
  ExprArena arena;
  auto x = mk_init(RegFamily::kAx);
  // 32 & 31 == 0
  EXPECT_TRUE(struct_eq(mk_bin(arena, BinOp::kShr, x, mk_const(arena, 32)), x));
}

TEST(Expr, FigureOneEquivalence) {
  ExprArena arena;
  // The heart of the reproduction: Figure 1(a) xors with 0x95 directly;
  // Figure 1(b) builds the key as 0x31 + 0x64 in a register. Both stored
  // values must normalize to the same expression.
  auto addr = mk_init(RegFamily::kAx);
  auto load = mk_load(arena, addr, 8, 0);
  auto direct = mk_bin(arena, BinOp::kXor, load, mk_const(arena, 0x95));
  auto built_key =
      mk_bin(arena, BinOp::kAdd, mk_const(arena, 0x31), mk_const(arena, 0x64));
  auto indirect = mk_bin(arena, BinOp::kXor, load, built_key);
  EXPECT_TRUE(struct_eq(direct, indirect));
}

}  // namespace
}  // namespace senids::ir

namespace senids::ir {
namespace {

/// Property sweep: constant-only expression trees must fold to exactly
/// the value a direct evaluator computes — the soundness core of the
/// Figure-1(b) key-reconstruction claim.
class ConstFoldProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConstFoldProperty, RandomConstTreesFoldExactly) {
  ExprArena arena;
  util::Prng prng(GetParam());
  // Build a random tree bottom-up over constants, computing the expected
  // value alongside with uint32 arithmetic.
  struct Node {
    ExprPtr expr;
    std::uint32_t value;
  };
  std::vector<Node> pool;
  for (int i = 0; i < 4; ++i) {
    const std::uint32_t v = static_cast<std::uint32_t>(prng.next());
    pool.push_back({mk_const(arena, v), v});
  }
  auto eval = [](BinOp op, std::uint32_t a, std::uint32_t b) -> std::uint32_t {
    switch (op) {
      case BinOp::kAdd: return a + b;
      case BinOp::kSub: return a - b;
      case BinOp::kXor: return a ^ b;
      case BinOp::kOr: return a | b;
      case BinOp::kAnd: return a & b;
      case BinOp::kMul: return a * b;
      case BinOp::kShl: return (b & 31) ? a << (b & 31) : a;
      case BinOp::kShr: return (b & 31) ? a >> (b & 31) : a;
      case BinOp::kSar:
        return (b & 31) ? static_cast<std::uint32_t>(static_cast<std::int32_t>(a) >>
                                                     (b & 31))
                        : a;
      case BinOp::kRol: {
        unsigned s = b & 31;
        return s ? (a << s) | (a >> (32 - s)) : a;
      }
      case BinOp::kRor: {
        unsigned s = b & 31;
        return s ? (a >> s) | (a << (32 - s)) : a;
      }
    }
    return 0;
  };
  static constexpr BinOp kOps[] = {BinOp::kAdd, BinOp::kSub, BinOp::kXor, BinOp::kOr,
                                   BinOp::kAnd, BinOp::kMul, BinOp::kShl, BinOp::kShr,
                                   BinOp::kSar, BinOp::kRol, BinOp::kRor};
  for (int step = 0; step < 24; ++step) {
    const BinOp op = kOps[prng.below(std::size(kOps))];
    const Node& a = pool[prng.below(pool.size())];
    const Node& b = pool[prng.below(pool.size())];
    Node n{mk_bin(arena, op, a.expr, b.expr), eval(op, a.value, b.value)};
    std::uint32_t folded;
    ASSERT_TRUE(is_const(n.expr, &folded)) << binop_name(op);
    ASSERT_EQ(folded, n.value) << binop_name(op);
    pool.push_back(std::move(n));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConstFoldProperty,
                         ::testing::Range<std::uint64_t>(0, 32));

/// Simplification must be semantics-preserving for mixed trees too: a
/// tree over one symbolic leaf, evaluated at a concrete value via
/// substitution-by-construction, equals the direct computation.
class SimplifyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimplifyProperty, MixedTreesPreserveSemantics) {
  ExprArena arena;
  util::Prng prng(100 + GetParam());
  const std::uint32_t x_value = static_cast<std::uint32_t>(prng.next());

  // Build the same random tree twice: once over init(eax) (symbolic) and
  // once over the constant x_value. If the symbolic tree happens to fold
  // to a constant, it must equal the concrete result.
  struct Pair {
    ExprPtr sym;
    ExprPtr conc;
  };
  std::vector<Pair> pool;
  pool.push_back({mk_init(arch::RegFamily::kAx), mk_const(arena, x_value)});
  for (int i = 0; i < 3; ++i) {
    const std::uint32_t v = static_cast<std::uint32_t>(prng.next());
    pool.push_back({mk_const(arena, v), mk_const(arena, v)});
  }
  static constexpr BinOp kOps[] = {BinOp::kAdd, BinOp::kSub, BinOp::kXor, BinOp::kOr,
                                   BinOp::kAnd, BinOp::kMul};
  for (int step = 0; step < 20; ++step) {
    const BinOp op = kOps[prng.below(std::size(kOps))];
    const Pair& a = pool[prng.below(pool.size())];
    const Pair& b = pool[prng.below(pool.size())];
    Pair n{mk_bin(arena, op, a.sym, b.sym), mk_bin(arena, op, a.conc, b.conc)};
    std::uint32_t sym_const, conc_const;
    ASSERT_TRUE(is_const(n.conc, &conc_const));
    if (is_const(n.sym, &sym_const)) {
      ASSERT_EQ(sym_const, conc_const)
          << binop_name(op) << " over " << to_string(a.sym) << " and "
          << to_string(b.sym);
    }
    pool.push_back(std::move(n));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplifyProperty,
                         ::testing::Range<std::uint64_t>(0, 32));

}  // namespace
}  // namespace senids::ir
