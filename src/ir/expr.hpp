// Symbolic value expressions. The lifter executes an instruction trace
// over these instead of concrete values; constant folding and algebraic
// normalization mean that syntactically different code computing the same
// value produces the *same* expression tree. This is what lets one
// template match `xor byte ptr [eax], 95h` and
// `mov ebx,31h; add ebx,64h; xor byte ptr [eax], bl` — both store
// Xor(Load(init_eax), 0x95).
//
// All expressions are 32-bit values (IA-32 native width); narrow loads
// and sub-register reads are represented zero-extended with explicit
// masks, which the simplifier folds away whenever operands are constant.
//
// Ownership: nodes are immutable and live in an ExprArena (below); an
// ExprPtr is a plain non-owning pointer into it, so building, copying and
// dropping expressions costs no allocation per node and no reference
// count. Whoever holds an ExprPtr must keep its arena alive: a lifted
// trace's nodes belong to LiftResult::arena, and a MatchResult or
// Detection that carries bindings holds a reference on that arena. The
// sixteen initial-register nodes (mk_init) are process-wide and never
// freed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "arch/reg.hpp"

namespace senids::ir {

enum class ExprKind : std::uint8_t { kConst, kInitReg, kLoad, kBin, kUn, kUnknown };

enum class BinOp : std::uint8_t {
  kAdd, kSub, kXor, kOr, kAnd, kShl, kShr, kSar, kRol, kRor, kMul
};

enum class UnOp : std::uint8_t { kNot, kNeg };

struct Expr;
/// Non-owning: the node lives in an ExprArena (or is an mk_init node).
using ExprPtr = const Expr*;

/// Immutable expression node. Build only through the mk_* factories,
/// which enforce normalization invariants (constants folded, commutative
/// operands ordered, identities removed).
struct Expr {
  ExprKind kind = ExprKind::kConst;
  // kInitReg
  arch::RegFamily family{};
  // kLoad
  std::uint8_t load_width = 32;   // bits
  // kBin / kUn
  BinOp bop{};
  UnOp uop{};
  /// Upper bound on the number of significant bits of the value
  /// (e.g. an 8-bit load has value_bits == 8 even before masking). Used
  /// by the simplifier to drop covering masks: And(x, m) == x whenever m
  /// covers value_bits(x) bits.
  std::uint8_t value_bits = 32;
  // kConst
  std::uint32_t cval = 0;
  // kLoad
  std::uint32_t generation = 0;   // memory version at load time
  // kUnknown
  std::uint32_t unknown_id = 0;

  std::size_t cached_hash = 0;
  // kLoad
  ExprPtr addr = nullptr;
  // kBin / kUn
  ExprPtr lhs = nullptr, rhs = nullptr;
};

/// Chunked bump allocator that owns expression nodes and the other
/// trivially destructible objects a lift produces (the syscall register
/// snapshots events point to). Nothing is freed one at a time: recycle()
/// forgets every object at once and keeps the chunks for the next lift,
/// so a worker that lifts thousands of traces touches the heap only
/// while its arena grows to its high-water mark. Chunks start small
/// (4 KiB) and grow on demand. Under AddressSanitizer a recycled chunk
/// is poisoned until handed out again, so a node read after its arena
/// was recycled is reported as a use-after-poison.
///
/// Held through a shared_ptr by LiftResult; enable_shared_from_this lets
/// a match take a reference on the arena its bindings point into.
/// Not thread-safe: one lift writes to an arena at a time.
class ExprArena : public std::enable_shared_from_this<ExprArena> {
 public:
  ExprArena() = default;  // allocates nothing until first use
  ~ExprArena();
  ExprArena(const ExprArena&) = delete;
  ExprArena& operator=(const ExprArena&) = delete;

  /// Uninitialized storage for `n` objects of type T.
  template <class T>
  T* allocate(std::size_t n = 1) {
    static_assert(std::is_trivially_destructible_v<T> && alignof(T) <= kAlign);
    return static_cast<T*>(allocate_bytes(n * sizeof(T)));
  }

  /// Forget every object allocated so far; the chunks are reused.
  void recycle() noexcept;

  /// Bytes held in chunks (live or recycled).
  [[nodiscard]] std::size_t capacity() const noexcept;

 private:
  static constexpr std::size_t kAlign = alignof(void*);
  static constexpr std::size_t kFirstChunk = 4096;
  static constexpr std::size_t kMaxChunk = 64 * 1024;

  void* allocate_bytes(std::size_t bytes) {
    bytes = (bytes + kAlign - 1) & ~(kAlign - 1);
    if (static_cast<std::size_t>(end_ - ptr_) < bytes) return next_chunk(bytes);
    return bump(bytes);
  }
  void* bump(std::size_t bytes) noexcept;
  void* next_chunk(std::size_t bytes);

  struct Chunk {
    std::unique_ptr<std::byte[]> mem;
    std::size_t size = 0;
  };
  std::vector<Chunk> chunks_;
  /// chunks_[0, next_) hold this lift's objects ([ptr_, end_) is the
  /// unused tail of the last of them); chunks_[next_, end) await reuse.
  std::size_t next_ = 0;
  std::byte* ptr_ = nullptr;
  std::byte* end_ = nullptr;
};

// ------------------------------------------------------------- factories

/// Every node-building factory allocates into the arena it is given.
ExprPtr mk_const(ExprArena& a, std::uint32_t v);
/// The initial value of register family `f`: one immutable process-wide
/// node per family, shared by every lift (no arena needed).
ExprPtr mk_init(arch::RegFamily f);
ExprPtr mk_load(ExprArena& a, ExprPtr addr, unsigned width_bits,
                std::uint32_t generation);
ExprPtr mk_bin(ExprArena& a, BinOp op, ExprPtr l, ExprPtr r);
ExprPtr mk_un(ExprArena& a, UnOp op, ExprPtr x);
ExprPtr mk_unknown(ExprArena& a, std::uint32_t id);

// ------------------------------------------------------------- utilities

/// Structural equality (normalization makes it a sound semantic-equality
/// approximation: equal trees compute equal values).
bool struct_eq(ExprPtr a, ExprPtr b) noexcept;

/// Structural hash consistent with struct_eq.
std::size_t expr_hash(ExprPtr e) noexcept;

/// Recompute a node's hash from its (already-hashed) children, ignoring
/// the cached value. The factories cache this at construction; the
/// verifier re-derives it to catch corrupted or hand-built nodes whose
/// stale cache would defeat struct_eq's fast-path rejection (two equal
/// trees comparing unequal is a silent missed detection). Null children
/// hash as 0 so malformed nodes can still be reported, not crashed on.
std::size_t recompute_hash(const Expr& e) noexcept;

/// nullptr-safe constant test; returns the value when e is a constant.
bool is_const(ExprPtr e, std::uint32_t* value = nullptr) noexcept;

/// Debug/authoring rendering, e.g. "xor(load8(init(eax)), 0x95)".
std::string to_string(ExprPtr e);

const char* binop_name(BinOp op) noexcept;

}  // namespace senids::ir
