// Semantic events: the lifter reduces an instruction trace to the
// sequence of architecturally visible effects, each expressed over the
// symbolic domain. Templates match against this stream — never against
// instruction syntax — which is the core idea of semantics-aware
// detection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "ir/expr.hpp"
#include "arch/insn.hpp"

namespace senids::ir {

/// Event::vector value for the x86-64 `syscall` instruction — outside
/// the 0..255 int-vector space so it can never collide with an int imm8.
inline constexpr std::uint16_t kSyscallVector = 0x100;

/// Register expressions a syscall event captures: one per RegFamily.
inline constexpr std::size_t kSyscallRegs = 16;

enum class EventKind : std::uint8_t {
  kRegWrite,   // register family := value
  kMemWrite,   // mem[addr] := value (width bits)
  kBranch,     // control transfer (conditional or not)
  kSyscall,    // int N with captured register state
};

struct Event {
  EventKind kind{};
  std::size_t insn_index = 0;   // index into the lifted trace
  std::size_t insn_offset = 0;  // byte offset of the originating instruction

  // kRegWrite
  arch::RegFamily reg{};
  ExprPtr value = nullptr;      // also the stored value for kMemWrite

  // kMemWrite
  ExprPtr addr = nullptr;
  std::uint8_t width = 32;      // bits (64 for qword stores; the value
                                // expression still models the low 32 bits)

  // kBranch
  bool conditional = false;
  bool backward = false;        // static target at or before this instruction
  std::optional<std::size_t> target;  // static target (buffer offset)
  bool is_call = false;

  // kSyscall
  /// Syscall mechanism: the int imm8 vector (0x80 for 32-bit Linux), or
  /// kSyscallVector for the x86-64 `syscall` instruction.
  std::uint16_t vector = 0;
  /// Register expressions at the syscall, indexed by RegFamily (rax..r15;
  /// kSyscallRegs slots held in the lift's arena, nullptr for other kinds).
  const ExprPtr* syscall_regs = nullptr;
};

}  // namespace senids::ir
