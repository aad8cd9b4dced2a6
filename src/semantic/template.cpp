#include "semantic/template.hpp"

#include <cstdio>

#include "arch/format.hpp"
#include "semantic/matcher.hpp"

namespace senids::semantic {

using ir::Event;

std::string_view threat_class_name(ThreatClass c) noexcept {
  switch (c) {
    case ThreatClass::kDecryptionLoop: return "decryption-loop";
    case ThreatClass::kShellSpawn: return "shell-spawn";
    case ThreatClass::kPortBindShell: return "port-bind-shell";
    case ThreatClass::kReverseShell: return "reverse-shell";
    case ThreatClass::kCodeRedII: return "code-red-ii";
    case ThreatClass::kCustom: return "custom";
  }
  return "?";
}

Stmt st_mem_write(PatPtr addr, PatPtr value, std::uint8_t width_bits) {
  Stmt s;
  s.kind = Stmt::Kind::kMemWrite;
  s.addr = std::move(addr);
  s.value = std::move(value);
  s.width = width_bits;
  return s;
}

Stmt st_decode_store(PatPtr addr, PatPtr value) {
  Stmt s = st_mem_write(std::move(addr), std::move(value), /*width_bits=*/8);
  s.require_invertible = true;
  return s;
}

Stmt st_reg_write(PatPtr value) {
  Stmt s;
  s.kind = Stmt::Kind::kRegWrite;
  s.value = std::move(value);
  return s;
}

Stmt st_advance(std::string ref_var) {
  Stmt s;
  s.kind = Stmt::Kind::kAdvance;
  s.ref_var = std::move(ref_var);
  return s;
}

Stmt st_branch_back() {
  Stmt s;
  s.kind = Stmt::Kind::kBranchBack;
  return s;
}

Stmt st_syscall(std::uint8_t sysno) {
  Stmt s;
  s.kind = Stmt::Kind::kSyscall;
  s.sysno = sysno;
  return s;
}

Stmt st_socketcall(std::uint8_t subfn) {
  Stmt s = st_syscall(0x66);
  s.ebx_low = subfn;
  return s;
}

Stmt st_syscall_str(std::uint8_t sysno, std::string ebx_points_to) {
  Stmt s = st_syscall(sysno);
  s.ebx_points_to = std::move(ebx_points_to);
  return s;
}

Stmt st_syscall64(std::uint8_t sysno) {
  Stmt s = st_syscall(sysno);
  s.vector = ir::kSyscallVector;
  return s;
}

Stmt st_syscall64_low(std::uint8_t sysno, std::uint8_t rdi_low) {
  Stmt s = st_syscall64(sysno);
  s.ebx_low = rdi_low;
  return s;
}

Stmt st_syscall64_str(std::uint8_t sysno, std::string rdi_points_to) {
  Stmt s = st_syscall64(sysno);
  s.ebx_points_to = std::move(rdi_points_to);
  return s;
}

std::string format_match(const Template& t, const LiftedCode& code,
                         const MatchResult& match) {
  std::string out = "template '" + t.name + "' (" +
                    std::string(threat_class_name(t.threat)) + ")";
  if (!t.note.empty()) out += " — " + t.note;
  out.push_back('\n');
  char buf[160];
  for (std::size_t i = 0; i < match.matched_events.size() && i < t.stmts.size(); ++i) {
    const Event& ev = (*code.events)[match.matched_events[i]];
    const arch::Instruction& insn = (*code.trace)[ev.insn_index];
    const char* what = "";
    switch (t.stmts[i].kind) {
      case Stmt::Kind::kMemWrite: what = "store"; break;
      case Stmt::Kind::kRegWrite: what = "regwrite"; break;
      case Stmt::Kind::kAdvance: what = "advance"; break;
      case Stmt::Kind::kBranchBack: what = "loopback"; break;
      case Stmt::Kind::kSyscall: what = "syscall"; break;
    }
    std::snprintf(buf, sizeof buf, "  %-9s @%04zx  %s\n", what, insn.offset,
                  arch::format(insn).c_str());
    out += buf;
  }
  for (const auto& [var, value] : match.bindings) {
    out += "  " + var + " = " + ir::to_string(value) + "\n";
  }
  return out;
}

std::optional<MatchResult> match_template(const Template& t, const LiftedCode& code) {
  const CompiledTemplate compiled = compile_template(t);
  TraceMatcher matcher;
  matcher.reset(code);
  return matcher.match(compiled);
}

}  // namespace senids::semantic
