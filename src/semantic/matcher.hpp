// The compiled template matcher. A Template is compiled once into flat
// arrays: pattern trees become PatNode arrays, binding names become slot
// indices, and every statement carries the cheap event checks (kind,
// store width, syscall vector) that run before any binding work. Match
// state is then a small slot array with an undo trail instead of copied
// name-keyed maps. match_template() and match_expr() are thin wrappers
// over this one matcher; the analyzer compiles its template set at
// construction and reuses one TraceMatcher per worker.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "semantic/pattern.hpp"
#include "semantic/template.hpp"

namespace senids::semantic {

/// One pattern node, children by index into the owning node array.
struct PatNode {
  PatKind kind{};
  std::int32_t slot = -1;  // binding slot; -1 = anonymous
  bool require_nonzero = false;
  std::uint32_t fixed = 0;
  ir::BinOp bop{};
  ir::UnOp uop{};
  std::int32_t a = -1, b = -1;  // kLoad: a = address; kBin: operands; kUn: a
  // kTransform
  std::int32_t base = -1;
  std::uint16_t allowed = 0;  // bit (1 << BinOp) per allowed operator
  bool allow_not = true;
  bool require_const_leaf = true;
};

/// Pattern trees flattened into one node array sharing one slot table.
struct PatternProgram {
  std::vector<PatNode> nodes;
  std::vector<std::string> slot_names;  // index = slot

  /// Append `p` (nullptr allowed: yields -1, which never matches) and
  /// return its root node index.
  std::int32_t add(const PatPtr& p);
  /// Slot of binding `name`, or -1 when no pattern binds it.
  [[nodiscard]] std::int32_t slot_of(std::string_view name) const;

 private:
  std::int32_t intern(const std::string& name);
};

/// Event classes of the statement prechecks. Every event that passes a
/// statement's precheck (kind, store width, syscall vector, step
/// mnemonic) belongs to that statement's class, so a trace's per-class
/// event lists hold every event a statement can match.
enum class EventClass : std::uint8_t {
  kRegWrite,
  kStep,        // register write by inc/dec/add/sub/lea
  kMemWrite,    // store of any width
  kMemWrite8,
  kMemWrite16,
  kMemWrite32,
  kMemWrite64,
  kCondBranch,  // conditional branch with a static target
  kSyscall,     // any vector
  kSyscall80,   // int 0x80
  kSyscall64,   // x86-64 `syscall`
};
inline constexpr std::size_t kEventClasses =
    static_cast<std::size_t>(EventClass::kSyscall64) + 1;

constexpr std::uint32_t class_bit(EventClass c) noexcept {
  return 1u << static_cast<unsigned>(c);
}

struct CompiledStmt {
  Stmt::Kind kind{};
  EventClass event_class{};     // the events this statement can match
  std::int32_t addr = -1;       // kMemWrite address pattern root
  std::int32_t value = -1;      // kMemWrite / kRegWrite value pattern root
  std::int32_t addr_slot = -1;  // kMemWrite: binding of the address pattern itself
  std::int32_t ref_slot = -1;   // kAdvance: the walked binding
  std::uint8_t width = 0;
  bool require_invertible = false;
  std::uint16_t vector = 0x80;
  std::optional<std::uint8_t> sysno;
  std::optional<std::uint8_t> ebx_low;
  std::string ebx_points_to;
};

struct CompiledTemplate {
  std::vector<CompiledStmt> stmts;
  PatternProgram patterns;
  std::uint32_t required_classes = 0;  // class_bit of every statement
};

CompiledTemplate compile_template(const Template& t);

/// Reusable matcher state for one worker. reset() starts a trace; every
/// template tried on that trace shares its per-class event lists and its
/// offset -> instruction index (built on first use).
class TraceMatcher {
 public:
  void reset(const LiftedCode& code);

  /// False when the trace has no event of a class `t` needs: the search
  /// would visit every (statement, event) pair and find nothing.
  [[nodiscard]] bool may_match(const CompiledTemplate& t) const noexcept {
    return (t.required_classes & ~classes_) == 0;
  }

  /// First match of `t` on the current trace, in the search order of a
  /// left-to-right depth-first walk over (statement, event) pairs.
  std::optional<MatchResult> match(const CompiledTemplate& t);

  /// Match one pattern of `program` against `e` with bindings seeded
  /// from `env`; on success, new bindings are added to `env`.
  bool match_pattern(const PatternProgram& program, std::int32_t root, ir::ExprPtr e,
                     Env& env);

 private:
  /// Per-slot match state: the bound expression, and for a binding made
  /// by a store's address pattern, the register family and width of
  /// that store (the pointer walk must step that register by that width).
  struct Slot {
    ir::ExprPtr value = nullptr;
    std::int8_t addr_reg = -1;    // arch::RegFamily, -1 = none
    std::uint8_t addr_width = 0;  // bits, 0 = none
  };

  bool dfs(std::size_t stmt_idx, std::size_t event_idx);
  bool stmt_matches(const CompiledStmt& s, const ir::Event& ev);
  bool pat(std::int32_t node, ir::ExprPtr e);
  bool transform_walk(const PatNode& p, ir::ExprPtr e, int& base_leaves,
                      int& const_leaves, int& ops);
  bool bind(std::int32_t slot, ir::ExprPtr e);
  void set_slot(std::int32_t slot, Slot s);
  void unwind(std::size_t mark);
  std::optional<std::size_t> index_of_offset(std::size_t offset);
  std::optional<arch::RegFamily> store_addr_reg(const ir::Event& ev) const;
  std::optional<arch::RegFamily> loop_counter_of(const ir::Event& ev) const;
  bool zero_flag_exits(std::size_t branch_index, bool loope) const;

  LiftedCode code_;
  std::uint32_t classes_ = 0;  // class_bit of every non-empty list below
  std::array<std::vector<std::uint32_t>, kEventClasses> by_class_;  // event indices
  bool offsets_built_ = false;
  std::vector<std::pair<std::size_t, std::size_t>> offsets_;  // (offset, index), sorted

  // Current search.
  const CompiledTemplate* t_ = nullptr;
  const std::vector<PatNode>* nodes_ = nullptr;
  std::vector<Slot> slots_;
  std::vector<std::pair<std::int32_t, Slot>> trail_;  // (slot, previous state)
  std::vector<std::size_t> matched_;
  std::optional<arch::RegFamily> advance_reg_;
  std::size_t advance_event_ = 0;
  std::size_t attempts_ = 0;
  std::optional<MatchResult> result_;
};

}  // namespace senids::semantic
