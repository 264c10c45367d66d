//===- trace/Trace.h - Trace representation ---------------------*- C++ -*-===//
///
/// \file
/// A trace: a sequence of basic blocks expected to execute to completion
/// (paper section 3). A trace is entered when the interpreter performs the
/// block transition (EntryFrom -> Blocks[0]), i.e. when the profiler's
/// branch context is the entry node Contexts[0]; it then executes Blocks in
/// order, exiting early if the program diverges. ExpectedCompletion is the
/// product of the branch-correlation edge probabilities along the trace at
/// construction time; the builder guarantees it is at least the completion
/// threshold.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_TRACE_TRACE_H
#define JTC_TRACE_TRACE_H

#include "support/Ids.h"

#include <cstdint>
#include <vector>

namespace jtc {

using TraceId = uint32_t;
constexpr TraceId InvalidTraceId = 0xffffffffu;

struct Trace {
  TraceId Id = InvalidTraceId;
  BlockId EntryFrom = InvalidBlockId;  ///< Predecessor block P of the entry.
  std::vector<BlockId> Blocks;         ///< B0..Bn; always >= 2 blocks.
  /// The BCG node of each block pair, parallel to Blocks: Contexts[0] is
  /// N(EntryFrom, B0), Contexts[k] is N(B(k-1), Bk).
  std::vector<NodeId> Contexts;
  double ExpectedCompletion = 1.0;
  uint32_t InstrCount = 0; ///< Total instructions over Blocks.
  bool Alive = true;       ///< False once replaced by a newer trace.

  /// Runtime behaviour, maintained by the trace cache: how often the
  /// trace was dispatched and how often it ran to completion. Used to
  /// retire traces whose observed completion falls measurably below the
  /// threshold (built from immature counters before the program's
  /// behaviour was fully visible).
  uint64_t Entered = 0;
  uint64_t Completed = 0;
  /// Entries left until the next retirement check, which falls on every
  /// TraceConfig::RetirementCheckEntries-th entry (set at install).
  uint64_t UntilRetirementCheck = 0;

  double observedCompletion() const {
    return Entered == 0 ? 1.0
                        : static_cast<double>(Completed) /
                              static_cast<double>(Entered);
  }

  size_t length() const { return Blocks.size(); }
};

/// How one dispatched trace run ended.
enum class TraceRunEnd : uint8_t {
  Completed, ///< Every trace block executed; NextBlock is the successor of
             ///< the final block.
  Diverged,  ///< A successor mismatched the trace; NextBlock is where
             ///< execution actually went.
  Trapped,   ///< A runtime trap fired; Machine::trap() is set.
  Finished,  ///< The program ended inside the trace (halt / bottom return).
  BudgetExhausted, ///< The session's instruction budget ran out after the
                   ///< last block run (the native tier declines any run
                   ///< the budget could cut short, so it ends this way
                   ///< only when the run fits the budget exactly).
};

/// The summary of one trace run, the same from either execution tier:
/// TraceVM commits it to the AdaptiveEngine in bulk. BlocksRun follows
/// the interpreter's accounting exactly: the block a trap fired in counts
/// as run.
struct TraceRunResult {
  TraceRunEnd End = TraceRunEnd::Completed;
  uint32_t BlocksRun = 0;             ///< Trace blocks executed (>= 1).
  BlockId LastBlock = InvalidBlockId; ///< The last of them.
  BlockId NextBlock = InvalidBlockId; ///< Successor (Completed / Diverged).

  /// The run ended the session instead of passing control on.
  bool endsSession() const {
    return End != TraceRunEnd::Completed && End != TraceRunEnd::Diverged;
  }
};

} // namespace jtc

#endif // JTC_TRACE_TRACE_H
