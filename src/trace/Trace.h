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

#include "bytecode/OpSemantics.h" // ElideLevel (header-only)
#include "support/Ids.h"

#include <cstdint>
#include <vector>

namespace jtc {

using TraceId = uint32_t;
constexpr TraceId InvalidTraceId = 0xffffffffu;

/// Outcome of construction-time translation validation (src/validate),
/// recorded by the trace cache's validate hook. No tier runs the
/// optimized form -- dispatch always runs the unoptimized block sequence
/// -- so a rejected trace stays dispatchable unchanged.
enum class TraceValidation : uint8_t {
  Unchecked, ///< No validator installed (validation off).
  Accepted,  ///< Optimized form proved a sound refinement.
  Rejected,  ///< Proof failed; the trace gets no check-elision
             ///< annotation (MemElisions stays empty).
};

/// One heap access on the trace path whose dynamic checks the alias
/// analysis proved redundant: src/analysis/Alias.h's TraceMemFact, copied
/// into the trace so the trace layer stays below the analysis layer in
/// the link order. The facts hold only while execution is *inside* the
/// trace -- every block before BlockIndex matched the recorded sequence
/// -- which is exactly when the backends consult them.
struct MemElision {
  uint32_t BlockIndex = 0; ///< Index into Trace::Blocks.
  uint32_t Pc = 0;         ///< Instruction pc within that block's method.
  ElideLevel Kind = ElideLevel::NullOnly;

  bool operator==(const MemElision &) const = default;
};

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
  TraceValidation Validation = TraceValidation::Unchecked;

  /// Check-elision facts, ordered by (BlockIndex, Pc), installed by the
  /// trace cache's annotate hook (AdaptiveEngine runs the alias analysis
  /// over the block sequence at construction time). Both execution tiers
  /// honor them: the interpreter tier via the block executor's armed
  /// elision span (BlockStepper::setElisions), the JIT via helper
  /// templates instantiated at the proven level. Empty when annotation
  /// is off, the trace was rejected by validation, or nothing was
  /// provable. Purely an execution shortcut -- the elided checks are
  /// proven to pass, so behaviour and digests are unchanged.
  std::vector<MemElision> MemElisions;

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
