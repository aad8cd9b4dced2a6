#include "arch/scan.hpp"

#include <algorithm>

namespace senids::arch {

namespace {

/// Size-and-zero a scratch array without shrinking its capacity.
template <typename V>
void reset(V& v, std::size_t n) {
  v.assign(n, typename V::value_type{});
}

}  // namespace

void find_code_runs(util::ByteView code, std::size_t min_insns, std::vector<CodeRun>& out,
                    ScanScratch& scratch, Mode mode) {
  out.clear();
  const std::size_t n = code.size();
  if (n == 0) return;

  // run_len[i]: number of instructions decodable linearly from offset i.
  // next[i]: offset after the instruction at i (0 when invalid).
  auto& run_len = scratch.run_len;
  auto& next = scratch.next;
  auto& back_target = scratch.back_target;
  auto& is_call = scratch.is_call;
  reset(run_len, n);
  reset(next, n);
  reset(back_target, n);
  reset(is_call, n);
  for (std::size_t i = n; i-- > 0;) {
    Instruction insn = decode(code, i, mode);
    if (!insn.valid()) continue;
    const std::size_t after = insn.end_offset();
    next[i] = static_cast<std::uint32_t>(after);
    run_len[i] = 1 + (after < n ? run_len[after] : 0);
    if (auto target = insn.branch_target(); target && *target < i) {
      back_target[i] = static_cast<std::uint32_t>(*target + 1);
    }
    is_call[i] = insn.mnemonic == Mnemonic::kCall;
  }

  // Emit runs that are not a tail of an earlier (longer) run with the same
  // synchronization: offset i is a tail iff some j<i decodes through i.
  auto& is_tail = scratch.is_tail;
  reset(is_tail, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (run_len[i] != 0 && next[i] < n && run_len[next[i]] != 0) {
      is_tail[next[i]] = 1;
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (run_len[i] >= min_insns && !is_tail[i]) out.push_back(CodeRun{i, run_len[i]});
  }
  // Rank longest first: real code (decoders, shellcode bodies) forms long
  // coherent runs, while text/noise fragments into many short ones, so
  // every consumer with an entry budget wants the long runs first.
  std::sort(out.begin(), out.end(), [](const CodeRun& a, const CodeRun& b) {
    return a.insn_count != b.insn_count ? a.insn_count > b.insn_count : a.start < b.start;
  });
}

std::vector<CodeRun> find_code_runs(util::ByteView code, std::size_t min_insns,
                                    Mode mode) {
  std::vector<CodeRun> runs;
  ScanScratch scratch;
  find_code_runs(code, min_insns, runs, scratch, mode);
  return runs;
}

void execution_trace(util::ByteView code, std::size_t entry, std::size_t max_insns,
                     std::vector<Instruction>& out, ScanScratch& scratch, Mode mode) {
  out.clear();
  auto& visited = scratch.visited;
  if (visited.size() < code.size()) visited.resize(code.size(), 0);
  if (++scratch.visit_gen == 0) {  // stamp wrapped: every slot looks visited
    std::fill(visited.begin(), visited.end(), 0);
    scratch.visit_gen = 1;
  }
  const std::uint32_t gen = scratch.visit_gen;
  std::size_t pc = entry;

  while (pc < code.size() && out.size() < max_insns) {
    if (visited[pc] == gen) break;  // loop closed: stream complete
    visited[pc] = gen;
    Instruction insn = decode(code, pc, mode);
    if (!insn.valid()) break;
    const Instruction& placed = out.emplace_back(std::move(insn));

    if (placed.mnemonic == Mnemonic::kJmp || placed.mnemonic == Mnemonic::kCall) {
      // Calls are followed like jumps: shellcode uses call for GetPC
      // (jmp/call/pop), and the interesting flow continues at the target.
      auto target = placed.branch_target();
      if (!target || *target >= code.size()) break;  // indirect or escaping
      pc = *target;
      continue;
    }
    if (placed.ends_flow()) break;
    pc = placed.end_offset();
  }
}

std::vector<Instruction> execution_trace(util::ByteView code, std::size_t entry,
                                         std::size_t max_insns, Mode mode) {
  std::vector<Instruction> trace;
  ScanScratch scratch;
  execution_trace(code, entry, max_insns, trace, scratch, mode);
  return trace;
}

}  // namespace senids::arch
