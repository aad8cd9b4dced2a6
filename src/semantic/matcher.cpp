#include "semantic/matcher.hpp"

#include <algorithm>
#include <cstring>

#include "arch/defuse.hpp"

namespace senids::semantic {

using ir::Event;
using ir::EventKind;
using ir::ExprKind;
using ir::ExprPtr;

namespace {

/// Hostile-input safety valve: (statement, event) pairs one search may
/// visit. Every visited pair counts, including those the event precheck
/// rejects, so the cap cuts the search at the same point whatever the
/// prechecks skip.
constexpr std::size_t kAttemptCap = 1u << 20;

bool commutative(ir::BinOp op) {
  switch (op) {
    case ir::BinOp::kAdd:
    case ir::BinOp::kXor:
    case ir::BinOp::kOr:
    case ir::BinOp::kAnd:
    case ir::BinOp::kMul:
      return true;
    default:
      return false;
  }
}

/// The bits of a value under `mask`, when provably known. Handles the
/// two forms shellcode produces: a folded constant (`xor eax,eax; mov
/// al,N`) and an unfolded sub-register merge whose masked side cannot
/// touch the bits asked for (`mov al,N` over unknown eax).
std::optional<std::uint32_t> known_bits(ExprPtr e, std::uint32_t mask) {
  std::uint32_t v;
  if (ir::is_const(e, &v)) return v & mask;
  if (e && e->kind == ExprKind::kBin && e->bop == ir::BinOp::kOr) {
    std::uint32_t c, m;
    // Or(And(x, m), c) with m not covering the asked bits.
    if (ir::is_const(e->rhs, &c) && e->lhs->kind == ExprKind::kBin &&
        e->lhs->bop == ir::BinOp::kAnd && ir::is_const(e->lhs->rhs, &m) &&
        (m & mask) == 0) {
      return c & mask;
    }
  }
  return std::nullopt;
}

std::optional<std::uint8_t> low_byte_const(ExprPtr e) {
  if (auto v = known_bits(e, 0xffu)) return static_cast<std::uint8_t>(*v);
  return std::nullopt;
}

/// Evaluate a matched store-value tree as a function of the loaded byte
/// `v`. All load leaves in a matched decoder tree refer to the same
/// location (the pattern enforces base consistency), so each evaluates to
/// `v`. Rotates are evaluated with 8-bit semantics, matching the byte
/// registers the decoders rotate. Returns nullopt for trees containing
/// initial-register or unknown leaves (not a pure byte function).
std::optional<std::uint32_t> eval_byte_fn(ExprPtr e, std::uint32_t v) {
  switch (e->kind) {
    case ExprKind::kConst:
      return e->cval;
    case ExprKind::kLoad:
      return v;
    case ExprKind::kUn: {
      auto x = eval_byte_fn(e->lhs, v);
      if (!x) return std::nullopt;
      return e->uop == ir::UnOp::kNot ? ~*x : 0u - *x;
    }
    case ExprKind::kBin: {
      auto a = eval_byte_fn(e->lhs, v);
      auto b = eval_byte_fn(e->rhs, v);
      if (!a || !b) return std::nullopt;
      switch (e->bop) {
        case ir::BinOp::kAdd: return *a + *b;
        case ir::BinOp::kSub: return *a - *b;
        case ir::BinOp::kXor: return *a ^ *b;
        case ir::BinOp::kOr: return *a | *b;
        case ir::BinOp::kAnd: return *a & *b;
        case ir::BinOp::kShl: return (*b & 31) ? (*a << (*b & 31)) : *a;
        case ir::BinOp::kShr: return (*b & 31) ? (*a >> (*b & 31)) : *a;
        case ir::BinOp::kSar:
          return static_cast<std::uint32_t>(static_cast<std::int32_t>(*a) >>
                                            (*b & 31));
        case ir::BinOp::kRol: {
          const unsigned sh = *b & 7;
          const std::uint32_t x8 = *a & 0xff;
          return sh ? (((x8 << sh) | (x8 >> (8 - sh))) & 0xff) : x8;
        }
        case ir::BinOp::kRor: {
          const unsigned sh = *b & 7;
          const std::uint32_t x8 = *a & 0xff;
          return sh ? (((x8 >> sh) | (x8 << (8 - sh))) & 0xff) : x8;
        }
        case ir::BinOp::kMul: return *a * *b;
      }
      return std::nullopt;
    }
    default:
      return std::nullopt;
  }
}

/// Is the stored value a bijective byte transform of the loaded byte?
bool is_invertible_byte_fn(ExprPtr e) {
  bool seen[256] = {};
  for (std::uint32_t v = 0; v < 256; ++v) {
    auto out = eval_byte_fn(e, v);
    if (!out) return false;
    const std::uint8_t b = static_cast<std::uint8_t>(*out & 0xff);
    if (seen[b]) return false;
    seen[b] = true;
  }
  return true;
}

/// Strip trailing constant additions: returns the symbolic base (nullptr
/// for a pure constant) and accumulates the constant displacement.
ExprPtr addr_base(ExprPtr e, std::int64_t& off) {
  while (e->kind == ExprKind::kBin && e->bop == ir::BinOp::kAdd &&
         e->rhs->kind == ExprKind::kConst) {
    off += static_cast<std::int32_t>(e->rhs->cval);
    e = e->lhs;
  }
  if (e->kind == ExprKind::kConst) {
    off += static_cast<std::int32_t>(e->cval);
    return nullptr;
  }
  return e;
}

/// If a == b + c for a constant c, return c. Works whether the pointer is
/// rooted in an initial register (init(esi) + 1), a derived expression, or
/// a known buffer constant (jmp/call/pop pointers fold to constants).
std::optional<std::int64_t> addr_diff(ExprPtr a, ExprPtr b) {
  std::int64_t oa = 0, ob = 0;
  const ExprPtr ba = addr_base(a, oa);
  const ExprPtr bb = addr_base(b, ob);
  if (ba == nullptr && bb == nullptr) return oa - ob;
  if (ba && bb && ir::struct_eq(ba, bb)) return oa - ob;
  return std::nullopt;
}

/// Is this register write a plain pointer step? An in-place decoder's
/// pointer walk is inc/dec/add/sub/lea. String ops (cmps advances esi as
/// a side effect of comparing) and movs/stos (which would clobber the
/// freshly decoded byte) are coincidences, not walks.
bool is_step_mnemonic(arch::Mnemonic m) {
  switch (m) {
    case arch::Mnemonic::kInc:
    case arch::Mnemonic::kDec:
    case arch::Mnemonic::kAdd:
    case arch::Mnemonic::kSub:
    case arch::Mnemonic::kLea:
      return true;
    default:
      return false;
  }
}

EventClass mem_write_class(unsigned width) {
  switch (width) {
    case 8: return EventClass::kMemWrite8;
    case 16: return EventClass::kMemWrite16;
    case 32: return EventClass::kMemWrite32;
    case 64: return EventClass::kMemWrite64;
    default: return EventClass::kMemWrite;
  }
}

EventClass syscall_class(std::uint16_t vector) {
  if (vector == 0x80) return EventClass::kSyscall80;
  if (vector == ir::kSyscallVector) return EventClass::kSyscall64;
  return EventClass::kSyscall;
}

/// The class of events a statement's precheck admits.
EventClass stmt_class(const Stmt& s) {
  switch (s.kind) {
    case Stmt::Kind::kMemWrite:
      return s.width ? mem_write_class(s.width) : EventClass::kMemWrite;
    case Stmt::Kind::kRegWrite: return EventClass::kRegWrite;
    case Stmt::Kind::kAdvance: return EventClass::kStep;
    case Stmt::Kind::kBranchBack: return EventClass::kCondBranch;
    case Stmt::Kind::kSyscall: return syscall_class(s.vector);
  }
  return EventClass::kRegWrite;
}

}  // namespace

// ------------------------------------------------------------ compiling

std::int32_t PatternProgram::intern(const std::string& name) {
  if (name.empty()) return -1;
  if (const std::int32_t s = slot_of(name); s >= 0) return s;
  slot_names.push_back(name);
  return static_cast<std::int32_t>(slot_names.size() - 1);
}

std::int32_t PatternProgram::slot_of(std::string_view name) const {
  for (std::size_t i = 0; i < slot_names.size(); ++i) {
    if (slot_names[i] == name) return static_cast<std::int32_t>(i);
  }
  return -1;
}

std::int32_t PatternProgram::add(const PatPtr& p) {
  if (!p) return -1;
  PatNode n;
  n.kind = p->kind;
  n.slot = intern(p->var);
  n.require_nonzero = p->require_nonzero;
  n.fixed = p->fixed;
  n.bop = p->bop;
  n.uop = p->uop;
  n.allow_not = p->allow_not;
  n.require_const_leaf = p->require_const_leaf;
  for (ir::BinOp op : p->allowed) {
    n.allowed |= static_cast<std::uint16_t>(1u << static_cast<unsigned>(op));
  }
  n.a = add(p->a);
  n.b = add(p->b);
  n.base = add(p->base);
  nodes.push_back(n);
  return static_cast<std::int32_t>(nodes.size() - 1);
}

CompiledTemplate compile_template(const Template& t) {
  CompiledTemplate c;
  c.stmts.reserve(t.stmts.size());
  for (const Stmt& s : t.stmts) {
    CompiledStmt cs;
    cs.kind = s.kind;
    cs.event_class = stmt_class(s);
    cs.addr = c.patterns.add(s.addr);
    cs.value = c.patterns.add(s.value);
    if (s.addr) cs.addr_slot = c.patterns.slot_of(s.addr->var);
    cs.width = s.width;
    cs.require_invertible = s.require_invertible;
    cs.vector = s.vector;
    cs.sysno = s.sysno;
    cs.ebx_low = s.ebx_low;
    cs.ebx_points_to = s.ebx_points_to;
    c.required_classes |= class_bit(cs.event_class);
    c.stmts.push_back(std::move(cs));
  }
  // Advance statements may name a binding made by any statement.
  for (std::size_t i = 0; i < t.stmts.size(); ++i) {
    if (t.stmts[i].kind == Stmt::Kind::kAdvance) {
      c.stmts[i].ref_slot = c.patterns.slot_of(t.stmts[i].ref_var);
    }
  }
  return c;
}

// -------------------------------------------------------- trace context

void TraceMatcher::reset(const LiftedCode& code) {
  code_ = code;
  offsets_built_ = false;
  classes_ = 0;
  for (auto& list : by_class_) list.clear();
  if (!code.events || !code.trace) return;
  const auto& events = *code.events;
  auto add = [&](EventClass c, std::size_t i) {
    by_class_[static_cast<std::size_t>(c)].push_back(static_cast<std::uint32_t>(i));
    classes_ |= class_bit(c);
  };
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& ev = events[i];
    switch (ev.kind) {
      case EventKind::kRegWrite:
        add(EventClass::kRegWrite, i);
        if (ev.value && (ev.insn_index >= code.trace->size() ||
                         is_step_mnemonic((*code.trace)[ev.insn_index].mnemonic))) {
          add(EventClass::kStep, i);
        }
        break;
      case EventKind::kMemWrite:
        add(EventClass::kMemWrite, i);
        if (const EventClass c = mem_write_class(ev.width); c != EventClass::kMemWrite) {
          add(c, i);
        }
        break;
      case EventKind::kBranch:
        if (ev.conditional && ev.target) add(EventClass::kCondBranch, i);
        break;
      case EventKind::kSyscall:
        add(EventClass::kSyscall, i);
        if (const EventClass c = syscall_class(ev.vector); c != EventClass::kSyscall) {
          add(c, i);
        }
        break;
    }
  }
}

std::optional<std::size_t> TraceMatcher::index_of_offset(std::size_t offset) {
  if (!offsets_built_) {
    const auto& trace = *code_.trace;
    offsets_.clear();
    offsets_.reserve(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      offsets_.emplace_back(trace[i].offset, i);
    }
    // Sorting (offset, index) pairs puts the first trace occurrence of an
    // offset first.
    std::sort(offsets_.begin(), offsets_.end());
    offsets_built_ = true;
  }
  auto it = std::lower_bound(offsets_.begin(), offsets_.end(),
                             std::pair<std::size_t, std::size_t>{offset, 0});
  if (it == offsets_.end() || it->first != offset) return std::nullopt;
  return it->second;
}

// ------------------------------------------------------------- bindings

void TraceMatcher::set_slot(std::int32_t slot, Slot s) {
  trail_.emplace_back(slot, slots_[static_cast<std::size_t>(slot)]);
  slots_[static_cast<std::size_t>(slot)] = s;
}

void TraceMatcher::unwind(std::size_t mark) {
  while (trail_.size() > mark) {
    slots_[static_cast<std::size_t>(trail_.back().first)] = trail_.back().second;
    trail_.pop_back();
  }
}

/// Bind a slot to `e`, or verify consistency with an existing binding.
bool TraceMatcher::bind(std::int32_t slot, ExprPtr e) {
  if (slot < 0) return true;
  Slot s = slots_[static_cast<std::size_t>(slot)];
  if (s.value) return ir::struct_eq(s.value, e);
  s.value = e;
  set_slot(slot, s);
  return true;
}

/// Match pattern node `node` against `e`, extending the slots. A failed
/// match may leave bindings behind; callers unwind to their own mark.
bool TraceMatcher::pat(std::int32_t node, ExprPtr e) {
  if (node < 0 || !e) return false;
  const PatNode& p = (*nodes_)[static_cast<std::size_t>(node)];
  switch (p.kind) {
    case PatKind::kAny:
      return bind(p.slot, e);

    case PatKind::kConst: {
      std::uint32_t v;
      if (!ir::is_const(e, &v)) return false;
      if (p.require_nonzero && v == 0) return false;
      return bind(p.slot, e);
    }

    case PatKind::kFixedConst: {
      std::uint32_t v;
      return ir::is_const(e, &v) && v == p.fixed;
    }

    case PatKind::kLoad:
      return e->kind == ExprKind::kLoad && pat(p.a, e->addr);

    case PatKind::kBin: {
      if (e->kind != ExprKind::kBin || e->bop != p.bop) return false;
      const std::size_t mark = trail_.size();
      if (pat(p.a, e->lhs) && pat(p.b, e->rhs)) return true;
      unwind(mark);
      if (commutative(p.bop)) {
        if (pat(p.a, e->rhs) && pat(p.b, e->lhs)) return true;
        unwind(mark);
      }
      return false;
    }

    case PatKind::kUn:
      return e->kind == ExprKind::kUn && e->uop == p.uop && pat(p.a, e->lhs);

    case PatKind::kTransform: {
      // Any tree over the allowed operators whose leaves are constants or
      // matches of `base`; binding happens through the base matches.
      int base_leaves = 0, const_leaves = 0, ops = 0;
      if (!transform_walk(p, e, base_leaves, const_leaves, ops)) return false;
      if (base_leaves < 1 || ops < 1) return false;
      return !p.require_const_leaf || const_leaves >= 1;
    }
  }
  return false;
}

bool TraceMatcher::transform_walk(const PatNode& p, ExprPtr e, int& base_leaves,
                                  int& const_leaves, int& ops) {
  // A base match takes priority: the base pattern is typically a load,
  // which can never be an allowed internal node anyway.
  const std::size_t mark = trail_.size();
  if (pat(p.base, e)) {
    ++base_leaves;
    return true;
  }
  unwind(mark);
  if (e->kind == ExprKind::kConst) {
    ++const_leaves;
    return true;
  }
  if (e->kind == ExprKind::kBin && (p.allowed >> static_cast<unsigned>(e->bop)) & 1u) {
    ++ops;
    return transform_walk(p, e->lhs, base_leaves, const_leaves, ops) &&
           transform_walk(p, e->rhs, base_leaves, const_leaves, ops);
  }
  // Byte-access plumbing: an And with a constant mask is how the lifter
  // represents sub-register reads of wider intermediate values. It is
  // transparent to the transform structure — traverse through it
  // without counting it as a transformation step.
  if (e->kind == ExprKind::kBin && e->bop == ir::BinOp::kAnd &&
      e->rhs->kind == ExprKind::kConst) {
    return transform_walk(p, e->lhs, base_leaves, const_leaves, ops);
  }
  if (e->kind == ExprKind::kUn && e->uop == ir::UnOp::kNot && p.allow_not) {
    ++ops;
    return transform_walk(p, e->lhs, base_leaves, const_leaves, ops);
  }
  return false;
}

bool TraceMatcher::match_pattern(const PatternProgram& program, std::int32_t root,
                                 ExprPtr e, Env& env) {
  nodes_ = &program.nodes;
  slots_.assign(program.slot_names.size(), Slot{});
  trail_.clear();
  for (std::size_t i = 0; i < program.slot_names.size(); ++i) {
    if (auto it = env.find(program.slot_names[i]); it != env.end()) {
      slots_[i].value = it->second;
    }
  }
  if (!pat(root, e)) return false;
  for (std::size_t i = 0; i < program.slot_names.size(); ++i) {
    if (slots_[i].value) env.try_emplace(program.slot_names[i], slots_[i].value);
  }
  return true;
}

// ------------------------------------------------------------ statements

/// Register family a store instruction addresses through (base first,
/// then index; pushes and string stores use their implicit registers).
std::optional<arch::RegFamily> TraceMatcher::store_addr_reg(const Event& ev) const {
  const arch::Instruction& insn = (*code_.trace)[ev.insn_index];
  for (const arch::Operand& op : insn.ops) {
    if (op.kind != arch::OperandKind::kMem) continue;
    if (op.mem.base) return op.mem.base->family;
    if (op.mem.index) return op.mem.index->family;
    return std::nullopt;  // absolute address
  }
  switch (insn.mnemonic) {
    case arch::Mnemonic::kPush:
    case arch::Mnemonic::kPushf:
    case arch::Mnemonic::kPusha:
    case arch::Mnemonic::kCall:
    case arch::Mnemonic::kEnter:
      return arch::RegFamily::kSp;
    case arch::Mnemonic::kStos:
    case arch::Mnemonic::kMovs:
      return arch::RegFamily::kDi;
    default:
      return std::nullopt;
  }
}

/// A decoder's back edge is driven by a count-down loop: either a
/// loop/loope/loopne/jecxz instruction (implicit ecx), or a jnz whose
/// nearest preceding flag-setter is a register decrement (dec ecx /
/// sub ecx, imm). Returns the counter register, or nullopt when the
/// branch shows no such discipline — which coincidental backward
/// branches in data essentially never do.
std::optional<arch::RegFamily> TraceMatcher::loop_counter_of(const Event& ev) const {
  const auto& trace = *code_.trace;
  const arch::Instruction& brinsn = trace[ev.insn_index];
  switch (brinsn.mnemonic) {
    case arch::Mnemonic::kLoop:
      return arch::RegFamily::kCx;  // implicit ecx count-down
    case arch::Mnemonic::kLoope:
    case arch::Mnemonic::kLoopne:
      // These also branch on ZF, and when the last flag-setter's result
      // is a known constant the back edge is decided on the first pass:
      // a loope after a nonzero result never loops (observed
      // false-positive shape: `add al, 0x69` over a constant al).
      if (zero_flag_exits(ev.insn_index, brinsn.mnemonic == arch::Mnemonic::kLoope)) {
        return std::nullopt;
      }
      return arch::RegFamily::kCx;
    case arch::Mnemonic::kJecxz:
      // jecxz branches while ecx is ZERO — it cannot close a count-down
      // loop (observed false-positive shape).
      return std::nullopt;
    default:
      break;
  }
  if (brinsn.cond != arch::Cond::kNe) return std::nullopt;  // count-down = jnz
  for (std::size_t i = ev.insn_index; i-- > 0;) {
    const arch::Instruction& insn = trace[i];
    if (!arch::def_use(insn).flags_def) continue;
    if (insn.ops[0].kind != arch::OperandKind::kReg) return std::nullopt;
    switch (insn.mnemonic) {
      case arch::Mnemonic::kDec:
        return insn.ops[0].reg.family;
      case arch::Mnemonic::kSub:
        if (insn.ops[1].kind == arch::OperandKind::kImm) {
          return insn.ops[0].reg.family;
        }
        return std::nullopt;
      default:
        return std::nullopt;
    }
  }
  return std::nullopt;  // no flag source at all
}

/// True when ZF at instruction `branch_index` is statically known and
/// makes a loope (`loope` = true) or loopne fall through: the nearest
/// earlier flag-setter is an arithmetic or logic op on a register whose
/// lifted result is a constant.
bool TraceMatcher::zero_flag_exits(std::size_t branch_index, bool loope) const {
  const auto& trace = *code_.trace;
  for (std::size_t i = branch_index; i-- > 0;) {
    const arch::Instruction& insn = trace[i];
    if (!arch::def_use(insn).flags_def) continue;
    switch (insn.mnemonic) {
      case arch::Mnemonic::kAdd:
      case arch::Mnemonic::kSub:
      case arch::Mnemonic::kAnd:
      case arch::Mnemonic::kOr:
      case arch::Mnemonic::kXor:
      case arch::Mnemonic::kInc:
      case arch::Mnemonic::kDec:
      case arch::Mnemonic::kNeg:
        break;
      default:
        return false;
    }
    if (insn.ops[0].kind != arch::OperandKind::kReg) return false;
    const arch::Reg reg = insn.ops[0].reg;
    std::uint32_t mask = 0;
    switch (reg.width) {
      case arch::RegWidth::k8Lo: mask = 0xffu; break;
      case arch::RegWidth::k8Hi: mask = 0xff00u; break;
      case arch::RegWidth::k16: mask = 0xffffu; break;
      case arch::RegWidth::k32: mask = 0xffffffffu; break;
      case arch::RegWidth::k64: return false;  // values model the low 32 bits only
    }
    const Event* result = nullptr;
    for (const Event& ev : *code_.events) {
      if (ev.insn_index == i && ev.kind == EventKind::kRegWrite && ev.reg == reg.family) {
        result = &ev;
      }
    }
    if (!result) return false;
    const auto bits = known_bits(result->value, mask);
    if (!bits) return false;
    const bool zf = *bits == 0;
    return loope ? !zf : zf;
  }
  return false;
}

bool TraceMatcher::stmt_matches(const CompiledStmt& s, const Event& ev) {
  const auto& trace = *code_.trace;
  const auto& events = *code_.events;
  switch (s.kind) {
    case Stmt::Kind::kMemWrite: {
      if (ev.kind != EventKind::kMemWrite) return false;
      if (s.width != 0 && ev.width != s.width) return false;
      if (!pat(s.addr, ev.addr) || !pat(s.value, ev.value)) return false;
      if (s.require_invertible) {
        if (!is_invertible_byte_fn(ev.value)) return false;
        // The key operand must not live in the register that addresses
        // the store: a "key" carved out of the walking pointer changes
        // every iteration, which no fixed-key decoder does (observed
        // false-positive shape: `add byte [edx], dh`).
        const arch::Instruction& insn = trace[ev.insn_index];
        if (insn.ops[1].kind == arch::OperandKind::kReg &&
            insn.ops[0].kind == arch::OperandKind::kMem && insn.ops[0].mem.base &&
            insn.ops[1].reg.family == insn.ops[0].mem.base->family) {
          return false;
        }
      }
      if (s.addr_slot >= 0) {
        Slot slot = slots_[static_cast<std::size_t>(s.addr_slot)];
        if (auto family = store_addr_reg(ev)) {
          slot.addr_reg = static_cast<std::int8_t>(*family);
        }
        slot.addr_width = ev.width;
        set_slot(s.addr_slot, slot);
      }
      return true;
    }

    case Stmt::Kind::kRegWrite:
      return ev.kind == EventKind::kRegWrite && pat(s.value, ev.value);

    case Stmt::Kind::kAdvance: {
      // The pointer walk: some register now holds the bound address
      // plus a small nonzero constant. Computing the step as a
      // base+displacement difference makes the check agnostic to how
      // the pointer was obtained (initial register, esp-derived,
      // jmp/call/pop constant) and to how the step was encoded
      // (inc / add / sub -neg / lea).
      if (ev.kind != EventKind::kRegWrite || !ev.value) return false;
      if (!is_step_mnemonic(trace[ev.insn_index].mnemonic)) return false;
      if (s.ref_slot < 0) return false;
      const Slot& ref = slots_[static_cast<std::size_t>(s.ref_slot)];
      if (!ref.value) return false;
      // The register being stepped must be the one the matched store
      // addressed through.
      if (ref.addr_reg >= 0 && static_cast<arch::RegFamily>(ref.addr_reg) != ev.reg) {
        return false;
      }
      auto step = addr_diff(ev.value, ref.value);
      if (!step) return false;
      const std::int64_t mag = *step < 0 ? -*step : *step;
      // Real decoders walk their buffer in element-size strides; any
      // other delta is far more likely a coincidental register write.
      if (mag != 1 && mag != 2 && mag != 4) return false;
      // The stride must equal the decoded element size: a byte decoder
      // walks one byte per iteration.
      if (ref.addr_width != 0 && mag != ref.addr_width / 8) return false;
      advance_reg_ = ev.reg;
      advance_event_ = ev.insn_index;
      return true;
    }

    case Stmt::Kind::kBranchBack: {
      if (ev.kind != EventKind::kBranch || !ev.conditional || !ev.target) return false;
      auto counter = loop_counter_of(ev);
      if (!counter) return false;
      // The iteration counter and the walked pointer are distinct
      // registers in every real engine; random data overwhelmingly
      // produces loops where the pointer doubles as the counter.
      if (advance_reg_ && *counter == *advance_reg_) return false;
      auto target = index_of_offset(*ev.target);
      if (!target) return false;
      const std::size_t target_idx = *target;
      // Counter sanity: if the counter register was written before the
      // loop entry, its entry value must be a plausible constant count.
      // (An unwritten counter is fine — the snippet's caller provides
      // it, as in Figure 1 — but a garbage junk value is not a length.)
      {
        const Event* last_write = nullptr;
        for (const Event& prior : events) {
          if (prior.insn_index >= target_idx) break;
          if (prior.kind == EventKind::kRegWrite && prior.reg == *counter) {
            last_write = &prior;
          }
        }
        if (last_write) {
          std::uint32_t count_value = 0;
          if (!ir::is_const(last_write->value, &count_value) || count_value == 0 ||
              count_value > (1u << 22)) {
            return false;
          }
        }
      }
      // Backward in execution order...
      if (target_idx >= ev.insn_index) return false;
      // ...forming a compact loop body (decoder loops are tight; distant
      // coincidental branches are the main false-positive vector)...
      if (ev.insn_index - target_idx > 64) return false;
      // ...that encloses every previously matched statement, so the
      // transform and the pointer walk actually execute per iteration.
      for (std::size_t m : matched_) {
        const Event& prior = events[m];
        if (prior.insn_index < target_idx || prior.insn_index >= ev.insn_index) {
          return false;
        }
      }
      // The advanced pointer must survive until the back edge: a later
      // write to the same register would feed the next iteration a
      // different address (real decoders never do this; coincidental
      // matches in data routinely do).
      if (advance_reg_) {
        for (const Event& later : events) {
          if (later.kind == EventKind::kRegWrite && later.reg == *advance_reg_ &&
              later.insn_index > advance_event_ && later.insn_index < ev.insn_index) {
            return false;
          }
        }
      }
      return true;
    }

    case Stmt::Kind::kSyscall: {
      if (ev.kind != EventKind::kSyscall || ev.vector != s.vector) return false;
      // First-argument register by calling convention: ebx for int 0x80,
      // rdi for the x86-64 `syscall` instruction.
      const auto arg0 = static_cast<unsigned>(s.vector == ir::kSyscallVector
                                                  ? arch::RegFamily::kDi
                                                  : arch::RegFamily::kBx);
      if (s.sysno) {
        const auto ax = static_cast<unsigned>(arch::RegFamily::kAx);
        auto got = low_byte_const(ev.syscall_regs[ax]);
        if (!got || *got != *s.sysno) return false;
      }
      if (s.ebx_low) {
        auto got = low_byte_const(ev.syscall_regs[arg0]);
        if (!got || *got != *s.ebx_low) return false;
      }
      if (!s.ebx_points_to.empty()) {
        std::uint32_t ptr;
        if (!ir::is_const(ev.syscall_regs[arg0], &ptr)) return false;
        const auto& buf = code_.buffer;
        const std::string& want = s.ebx_points_to;
        if (ptr + want.size() > buf.size()) return false;
        if (std::memcmp(buf.data() + ptr, want.data(), want.size()) != 0) return false;
      }
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------- search

bool TraceMatcher::dfs(std::size_t stmt_idx, std::size_t event_idx) {
  const auto& events = *code_.events;
  if (stmt_idx == t_->stmts.size()) {
    MatchResult r;
    r.matched_events = matched_;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].value) {
        r.bindings.emplace(t_->patterns.slot_names[i], slots_[i].value);
      }
    }
    if (code_.arena) r.arena = code_.arena->weak_from_this().lock();
    r.start_offset = events[matched_.front()].insn_offset;
    result_ = std::move(r);
    return true;
  }
  const CompiledStmt& s = t_->stmts[stmt_idx];
  // Only events of the statement's class can match it. The pairs in
  // between still count as attempts, exactly as if each were visited and
  // rejected: a search is cut at the same pair either way.
  const auto& candidates = by_class_[static_cast<std::size_t>(s.event_class)];
  std::size_t counted = event_idx;  // events [event_idx, counted) are counted
  for (auto it = std::lower_bound(candidates.begin(), candidates.end(), event_idx);
       it != candidates.end(); ++it) {
    const std::size_t e = *it;
    attempts_ += e + 1 - counted;
    counted = e + 1;
    if (attempts_ > kAttemptCap) return false;  // hostile-input safety valve
    const std::size_t mark = trail_.size();
    const auto advance_reg = advance_reg_;
    const std::size_t advance_event = advance_event_;
    if (stmt_matches(s, events[e])) {
      matched_.push_back(e);
      if (dfs(stmt_idx + 1, e + 1)) return true;
      matched_.pop_back();
    }
    unwind(mark);
    advance_reg_ = advance_reg;
    advance_event_ = advance_event;
  }
  attempts_ += events.size() - counted;
  return false;
}

std::optional<MatchResult> TraceMatcher::match(const CompiledTemplate& t) {
  if (t.stmts.empty() || !code_.trace || !code_.events) return std::nullopt;
  if (!may_match(t)) return std::nullopt;
  t_ = &t;
  nodes_ = &t.patterns.nodes;
  slots_.assign(t.patterns.slot_names.size(), Slot{});
  trail_.clear();
  matched_.clear();
  advance_reg_.reset();
  advance_event_ = 0;
  attempts_ = 0;
  result_.reset();
  dfs(0, 0);
  return std::move(result_);
}

}  // namespace senids::semantic
