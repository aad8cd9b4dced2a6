#include "ir/expr.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define SENIDS_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SENIDS_ASAN 1
#endif
#endif
#ifdef SENIDS_ASAN
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace senids::ir {

// ---------------------------------------------------------------- arena

ExprArena::~ExprArena() {
  // Hand the chunks back to the allocator unpoisoned.
  for (const Chunk& c : chunks_) ASAN_UNPOISON_MEMORY_REGION(c.mem.get(), c.size);
}

void* ExprArena::bump(std::size_t bytes) noexcept {
  std::byte* p = ptr_;
  ptr_ += bytes;
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
  return p;
}

void* ExprArena::next_chunk(std::size_t bytes) {
  // Reuse a recycled chunk when one fits; otherwise grow, doubling the
  // chunk size up to kMaxChunk (larger requests get a chunk of their own).
  while (next_ < chunks_.size() && chunks_[next_].size < bytes) ++next_;
  if (next_ == chunks_.size()) {
    const std::size_t grown =
        chunks_.empty() ? kFirstChunk : std::min(kMaxChunk, chunks_.back().size * 2);
    Chunk c;
    c.size = std::max(grown, bytes);
    c.mem = std::make_unique_for_overwrite<std::byte[]>(c.size);
    ASAN_POISON_MEMORY_REGION(c.mem.get(), c.size);
    chunks_.push_back(std::move(c));
  }
  Chunk& c = chunks_[next_++];
  ptr_ = c.mem.get();
  end_ = ptr_ + c.size;
  return bump(bytes);
}

void ExprArena::recycle() noexcept {
  for (std::size_t i = 0; i < next_; ++i) {
    ASAN_POISON_MEMORY_REGION(chunks_[i].mem.get(), chunks_[i].size);
  }
  next_ = 0;
  ptr_ = end_ = nullptr;
}

std::size_t ExprArena::capacity() const noexcept {
  std::size_t n = 0;
  for (const Chunk& c : chunks_) n += c.size;
  return n;
}

namespace {

std::uint8_t bits_of_const(std::uint32_t v) noexcept {
  return static_cast<std::uint8_t>(32 - std::countl_zero(v));
}

/// Upper bound on significant bits of a (fresh) node's value.
std::uint8_t compute_value_bits(const Expr& e) noexcept {
  switch (e.kind) {
    case ExprKind::kConst:
      return bits_of_const(e.cval);
    case ExprKind::kLoad:
      // A 64-bit load still models the low 32 bits of the value.
      return std::min<std::uint8_t>(e.load_width, 32);
    case ExprKind::kBin: {
      const std::uint8_t lb = e.lhs->value_bits;
      const std::uint8_t rb = e.rhs->value_bits;
      switch (e.bop) {
        case BinOp::kXor:
        case BinOp::kOr:
          return std::max(lb, rb);
        case BinOp::kAnd:
          return std::min(lb, rb);
        case BinOp::kAdd:
          return static_cast<std::uint8_t>(std::min<unsigned>(32, std::max(lb, rb) + 1));
        case BinOp::kMul:
          return static_cast<std::uint8_t>(std::min<unsigned>(32, lb + rb));
        case BinOp::kShl: {
          std::uint32_t sh;
          if (is_const(e.rhs, &sh)) {
            return static_cast<std::uint8_t>(std::min<unsigned>(32, lb + (sh & 31)));
          }
          return 32;
        }
        case BinOp::kShr: {
          std::uint32_t sh;
          if (is_const(e.rhs, &sh)) {
            const unsigned s = sh & 31;
            return static_cast<std::uint8_t>(lb > s ? lb - s : 0);
          }
          return 32;
        }
        default:
          return 32;  // sub/sar/rol/ror can wrap or smear bits
      }
    }
    case ExprKind::kInitReg:
    case ExprKind::kUn:
    case ExprKind::kUnknown:
      return 32;
  }
  return 32;
}

ExprPtr make_node(ExprArena& a, const Expr& e) {
  Expr* p = new (a.allocate<Expr>()) Expr(e);
  // Hash is computed bottom-up once; children are already hashed.
  p->cached_hash = recompute_hash(*p);
  p->value_bits = compute_value_bits(*p);
  return p;
}

std::uint32_t fold(BinOp op, std::uint32_t a, std::uint32_t b) noexcept {
  switch (op) {
    case BinOp::kAdd: return a + b;
    case BinOp::kSub: return a - b;
    case BinOp::kXor: return a ^ b;
    case BinOp::kOr: return a | b;
    case BinOp::kAnd: return a & b;
    case BinOp::kShl: return (b & 31) ? (a << (b & 31)) : a;
    case BinOp::kShr: return (b & 31) ? (a >> (b & 31)) : a;
    case BinOp::kSar:
      return (b & 31) ? static_cast<std::uint32_t>(static_cast<std::int32_t>(a) >> (b & 31))
                      : a;
    case BinOp::kRol: {
      unsigned s = b & 31;
      return s ? ((a << s) | (a >> (32 - s))) : a;
    }
    case BinOp::kRor: {
      unsigned s = b & 31;
      return s ? ((a >> s) | (a << (32 - s))) : a;
    }
    case BinOp::kMul: return a * b;
  }
  return 0;
}

bool commutative(BinOp op) noexcept {
  switch (op) {
    case BinOp::kAdd:
    case BinOp::kXor:
    case BinOp::kOr:
    case BinOp::kAnd:
    case BinOp::kMul:
      return true;
    default:
      return false;
  }
}

/// True when op is associative so (x op c1) op c2 folds to x op (c1 op c2).
bool const_chain_foldable(BinOp op) noexcept {
  switch (op) {
    case BinOp::kAdd:
    case BinOp::kXor:
    case BinOp::kOr:
    case BinOp::kAnd:
    case BinOp::kMul:
      return true;
    default:
      return false;
  }
}

}  // namespace

ExprPtr mk_const(ExprArena& a, std::uint32_t v) {
  Expr e;
  e.kind = ExprKind::kConst;
  e.cval = v;
  return make_node(a, e);
}

ExprPtr mk_init(arch::RegFamily f) {
  static const std::array<Expr, 16> nodes = [] {
    std::array<Expr, 16> n{};
    for (unsigned i = 0; i < n.size(); ++i) {
      n[i].kind = ExprKind::kInitReg;
      n[i].family = static_cast<arch::RegFamily>(i);
      n[i].cached_hash = recompute_hash(n[i]);
      n[i].value_bits = compute_value_bits(n[i]);
    }
    return n;
  }();
  return &nodes[static_cast<unsigned>(f) & 15u];
}

ExprPtr mk_load(ExprArena& a, ExprPtr addr, unsigned width_bits,
                std::uint32_t generation) {
  Expr e;
  e.kind = ExprKind::kLoad;
  e.addr = addr;
  e.load_width = static_cast<std::uint8_t>(width_bits);
  e.generation = generation;
  return make_node(a, e);
}

ExprPtr mk_unknown(ExprArena& a, std::uint32_t id) {
  Expr e;
  e.kind = ExprKind::kUnknown;
  e.unknown_id = id;
  return make_node(a, e);
}

bool is_const(ExprPtr e, std::uint32_t* value) noexcept {
  if (!e || e->kind != ExprKind::kConst) return false;
  if (value) *value = e->cval;
  return true;
}

ExprPtr mk_un(ExprArena& a, UnOp op, ExprPtr x) {
  std::uint32_t c;
  if (is_const(x, &c)) {
    return mk_const(a, op == UnOp::kNot ? ~c : 0u - c);
  }
  // not(not(x)) -> x ; neg(neg(x)) -> x
  if (x->kind == ExprKind::kUn && x->uop == op) return x->lhs;
  Expr e;
  e.kind = ExprKind::kUn;
  e.uop = op;
  e.lhs = x;
  return make_node(a, e);
}

ExprPtr mk_bin(ExprArena& a, BinOp op, ExprPtr l, ExprPtr r) {
  std::uint32_t cl, cr;
  const bool l_const = is_const(l, &cl);
  const bool r_const = is_const(r, &cr);
  if (l_const && r_const) return mk_const(a, fold(op, cl, cr));

  // Canonicalize: subtraction of a constant becomes addition of its
  // negation so `sub eax,-1`, `add eax,1` and `inc eax` all normalize to
  // Add(init(eax), 1).
  if (op == BinOp::kSub && r_const) {
    return mk_bin(a, BinOp::kAdd, l, mk_const(a, 0u - cr));
  }

  // Commutative: keep the constant on the right.
  if (commutative(op) && l_const) {
    std::swap(l, r);
    std::swap(cl, cr);
    const bool t = l_const;
    (void)t;
  }
  const bool rc = is_const(r, &cr);

  if (rc) {
    // Identity and annihilator elements.
    switch (op) {
      case BinOp::kAdd:
      case BinOp::kXor:
      case BinOp::kOr:
        if (cr == 0) return l;
        if (op == BinOp::kOr && cr == 0xffffffffu) return mk_const(a, 0xffffffffu);
        break;
      case BinOp::kAnd:
        if (cr == 0) return mk_const(a, 0);
        if (cr == 0xffffffffu) return l;
        // Covering mask: if the mask has ones across every bit the value
        // can occupy, the AND is a no-op; if it has none there, the AND is
        // zero. Together these fold away the byte-access plumbing around
        // 8-bit loads and sub-register merges.
        if (l->value_bits < 32) {
          const std::uint32_t needed = (1u << l->value_bits) - 1;
          if ((cr & needed) == needed) return l;
          if ((cr & needed) == 0) return mk_const(a, 0);
        }
        // Distribute a constant mask over OR: this collapses the
        // sub-register merge form Or(And(x, ~m), c) that reading e.g. BL
        // back out of EBX produces — And over the merge yields the
        // constant byte again.
        if (l->kind == ExprKind::kBin && l->bop == BinOp::kOr) {
          return mk_bin(a, BinOp::kOr, mk_bin(a, BinOp::kAnd, l->lhs, mk_const(a, cr)),
                        mk_bin(a, BinOp::kAnd, l->rhs, mk_const(a, cr)));
        }
        break;
      case BinOp::kShl:
      case BinOp::kShr:
      case BinOp::kSar:
      case BinOp::kRol:
      case BinOp::kRor:
        if ((cr & 31) == 0) return l;
        break;
      case BinOp::kMul:
        if (cr == 1) return l;
        if (cr == 0) return mk_const(a, 0);
        break;
      default:
        break;
    }
    // Constant-chain folding: (x op c1) op c2 -> x op (c1 op c2).
    if (const_chain_foldable(op) && l->kind == ExprKind::kBin && l->bop == op) {
      std::uint32_t inner;
      if (is_const(l->rhs, &inner)) {
        return mk_bin(a, op, l->lhs, mk_const(a, fold(op, inner, cr)));
      }
    }
  }

  // x ^ x -> 0 ; x - x -> 0 ; x & x -> x ; x | x -> x
  if (struct_eq(l, r)) {
    switch (op) {
      case BinOp::kXor:
      case BinOp::kSub:
        return mk_const(a, 0);
      case BinOp::kAnd:
      case BinOp::kOr:
        return l;
      default:
        break;
    }
  }

  // Canonical operand order for commutative ops with two non-constant
  // operands: order by hash so Xor(a,b) and Xor(b,a) unify.
  if (commutative(op) && !rc && l->cached_hash > r->cached_hash) std::swap(l, r);

  Expr e;
  e.kind = ExprKind::kBin;
  e.bop = op;
  e.lhs = l;
  e.rhs = r;
  return make_node(a, e);
}

bool struct_eq(ExprPtr a, ExprPtr b) noexcept {
  if (a == b) return true;
  if (!a || !b) return false;
  if (a->kind != b->kind || a->cached_hash != b->cached_hash) return false;
  switch (a->kind) {
    case ExprKind::kConst: return a->cval == b->cval;
    case ExprKind::kInitReg: return a->family == b->family;
    case ExprKind::kLoad:
      return a->load_width == b->load_width && a->generation == b->generation &&
             struct_eq(a->addr, b->addr);
    case ExprKind::kBin:
      return a->bop == b->bop && struct_eq(a->lhs, b->lhs) && struct_eq(a->rhs, b->rhs);
    case ExprKind::kUn:
      return a->uop == b->uop && struct_eq(a->lhs, b->lhs);
    case ExprKind::kUnknown:
      return a->unknown_id == b->unknown_id;
  }
  return false;
}

std::size_t expr_hash(ExprPtr e) noexcept {
  return e ? e->cached_hash : 0;
}

std::size_t recompute_hash(const Expr& e) noexcept {
  std::size_t h = static_cast<std::size_t>(e.kind) * 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](std::size_t v) { h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2); };
  auto child = [](ExprPtr c) { return c ? c->cached_hash : 0; };
  switch (e.kind) {
    case ExprKind::kConst: mix(e.cval); break;
    case ExprKind::kInitReg: mix(static_cast<std::size_t>(e.family)); break;
    case ExprKind::kLoad:
      mix(child(e.addr));
      mix(e.load_width);
      mix(e.generation);
      break;
    case ExprKind::kBin:
      mix(static_cast<std::size_t>(e.bop));
      mix(child(e.lhs));
      mix(child(e.rhs));
      break;
    case ExprKind::kUn:
      mix(static_cast<std::size_t>(e.uop));
      mix(child(e.lhs));
      break;
    case ExprKind::kUnknown: mix(e.unknown_id); break;
  }
  return h;
}

const char* binop_name(BinOp op) noexcept {
  switch (op) {
    case BinOp::kAdd: return "add";
    case BinOp::kSub: return "sub";
    case BinOp::kXor: return "xor";
    case BinOp::kOr: return "or";
    case BinOp::kAnd: return "and";
    case BinOp::kShl: return "shl";
    case BinOp::kShr: return "shr";
    case BinOp::kSar: return "sar";
    case BinOp::kRol: return "rol";
    case BinOp::kRor: return "ror";
    case BinOp::kMul: return "mul";
  }
  return "?";
}

std::string to_string(ExprPtr e) {
  if (!e) return "null";
  char buf[32];
  switch (e->kind) {
    case ExprKind::kConst:
      std::snprintf(buf, sizeof buf, "0x%x", e->cval);
      return buf;
    case ExprKind::kInitReg: {
      std::string out = "init(";
      out += arch::Reg{e->family, arch::RegWidth::k32}.name();
      out += ")";
      return out;
    }
    case ExprKind::kLoad: {
      std::snprintf(buf, sizeof buf, "load%u@%u(", e->load_width, e->generation);
      return buf + to_string(e->addr) + ")";
    }
    case ExprKind::kBin:
      return std::string(binop_name(e->bop)) + "(" + to_string(e->lhs) + ", " +
             to_string(e->rhs) + ")";
    case ExprKind::kUn:
      return std::string(e->uop == UnOp::kNot ? "not" : "neg") + "(" + to_string(e->lhs) + ")";
    case ExprKind::kUnknown:
      std::snprintf(buf, sizeof buf, "unk%u", e->unknown_id);
      return buf;
  }
  return "?";
}

}  // namespace senids::ir
