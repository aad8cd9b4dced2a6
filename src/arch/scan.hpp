// Shellcode-oriented code discovery. Network payloads carry code at
// unknown offsets, so the scanner (a) finds plausible decode runs via a
// right-to-left dynamic program over the whole buffer, and (b) produces
// the *execution-order* instruction stream from an entry point by
// following unconditional jumps — which is exactly the normalization that
// defeats the out-of-order obfuscation of Figure 1(c) in the paper.
#pragma once

#include <vector>

#include "util/bytes.hpp"
#include "arch/decoder.hpp"

namespace senids::arch {

/// A maximal linear decode run.
struct CodeRun {
  std::size_t start = 0;
  std::size_t insn_count = 0;  // instructions decodable linearly from start
};

/// Reusable working memory for the scanner. find_code_runs sizes two
/// dynamic-programming arrays and a tail-suppression bitmap to the frame
/// length, and execution_trace tracks visited offsets — all allocation
/// the analysis hot loop would otherwise repeat per frame. A worker
/// keeps one ScanScratch and passes it to every call; the buffers grow
/// to the largest frame seen and are then reused allocation-free.
struct ScanScratch {
  std::vector<std::uint32_t> run_len;
  /// next[i]: offset after the instruction decoded at i (0 = invalid).
  std::vector<std::uint32_t> next;
  std::vector<char> is_tail;
  /// Control-flow facts from the same decode, so later passes walk
  /// next[] instead of decoding again: back_target[i] is one plus the
  /// target of a backward branch at i (0 = none), and is_call[i] marks a
  /// call, whose end offset is next[i].
  std::vector<std::uint32_t> back_target;
  std::vector<char> is_call;
  /// Generation-stamped visited set for execution_trace: a slot is
  /// "visited" iff it equals visit_gen, so starting a new trace is one
  /// increment instead of an O(frame) clear (frames are traced from
  /// thousands of entry points).
  std::vector<std::uint32_t> visited;
  std::uint32_t visit_gen = 0;
};

/// Find decode runs of at least `min_insns` instructions. Runs contained
/// in a longer run (same synchronization) are suppressed, so the result
/// is a small set of candidate shellcode entry points, ranked: longest
/// first, equal lengths by ascending offset.
std::vector<CodeRun> find_code_runs(util::ByteView code, std::size_t min_insns = 6,
                                    Mode mode = Mode::k32);

/// Buffer-reusing form: clears and fills `out` (capacity preserved),
/// using `scratch` for the internal arrays instead of allocating. On
/// return scratch.next, back_target and is_call describe every offset
/// of `code` (see ScanScratch).
void find_code_runs(util::ByteView code, std::size_t min_insns, std::vector<CodeRun>& out,
                    ScanScratch& scratch, Mode mode = Mode::k32);

/// Execution-order trace from `entry`: decodes, then follows unconditional
/// jmps with in-buffer targets; conditional branches and loops fall
/// through. Stops at invalid bytes, flow-ending instructions, buffer exit,
/// an already-visited offset (loop closure), or `max_insns`.
/// The returned sequence is the de-obfuscated instruction stream handed to
/// the IR lifter.
std::vector<Instruction> execution_trace(util::ByteView code, std::size_t entry,
                                         std::size_t max_insns = 4096,
                                         Mode mode = Mode::k32);

/// Buffer-reusing form: clears and fills `out` (capacity preserved),
/// using `scratch.visited` for the loop-closure bitmap.
void execution_trace(util::ByteView code, std::size_t entry, std::size_t max_insns,
                     std::vector<Instruction>& out, ScanScratch& scratch,
                     Mode mode = Mode::k32);

}  // namespace senids::arch
