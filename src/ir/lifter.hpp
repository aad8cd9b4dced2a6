// Symbolic executor: runs a decoded execution-order trace over the
// expression domain and emits the event stream. One pass through the
// trace corresponds to one unrolling of any loop; that is sufficient
// because the templates describe per-iteration behaviour plus the
// loop-back edge.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ir/event.hpp"
#include "arch/defuse.hpp"

namespace senids::ir {

struct LiftResult {
  std::vector<Event> events;
  /// Instructions whose semantics the lifter models only through def/use
  /// clobbers (diagnostic counter; high ratios indicate data, not code).
  std::size_t approximated = 0;
  /// Owns every expression node and syscall register snapshot the events
  /// point to. Anyone who keeps an expression past the next lift into
  /// this result copies this pointer (MatchResult and Detection do).
  std::shared_ptr<ExprArena> arena;
  /// Lifter working memory: event indices of the stores so far, newest
  /// last (the store-to-load forwarding log). Kept here so a reused
  /// result lifts without reallocating it.
  std::vector<std::uint32_t> store_log;
};

/// Lift `trace` (from arch::execution_trace or linear_sweep).
LiftResult lift(const std::vector<arch::Instruction>& trace);

/// Buffer-reusing form: `out.events` and `out.store_log` are cleared and
/// refilled in place, and `out.arena` is recycled when `out` is its only
/// owner (otherwise, because a match or a caller still holds nodes from
/// the previous lift, a fresh arena replaces it). A worker that lifts
/// thousands of traces into one result thus reuses one event buffer and
/// one set of arena chunks, with no per-node allocation.
void lift(const std::vector<arch::Instruction>& trace, LiftResult& out);

}  // namespace senids::ir
