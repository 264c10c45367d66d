//===- backend/TraceIR.h - Backend view of the trace IR ---------*- C++ -*-===//
///
/// \file
/// The execution IR a trace lowers into before a backend runs it: the
/// trace's dynamic instruction stream with every control decision made
/// explicit. Interior conditional branches become direction *guards*
/// (compare-and-side-exit, like src/opt's LinearOp guards, and annotated
/// with the same validator-grade liveness facts), and a tableswitch
/// becomes a switch guard on the recorded case; calls and returns
/// become frame ops that push/pop Machine frames and guard the recorded
/// continuation (a virtual call guards the resolved callee, a return
/// guards the return site -- both are dynamic, exactly the places a
/// recorded trace can diverge). Jumps and fallthroughs vanish: the block
/// sequence already encodes them (they still count in the instruction
/// accounting). The final block's terminator is not an interior op --
/// the trace records no direction for it -- so a separate completion
/// rule describes how it selects the successor block.
///
/// The JIT compiles the *unoptimized* stream: each IR op maps 1:1 to the
/// instruction the interpreter would execute, so the machine state at
/// every side exit, trap and completion is the interpreter state by
/// construction, and the interp/JIT digest contract is structural rather
/// than proved per trace. (Compiling the validator-accepted *optimized*
/// segments is the designed next step; guards already carry the liveness
/// facts that make partial state materialization at exits legal.)
///
//===----------------------------------------------------------------------===//

#ifndef JTC_BACKEND_TRACEIR_H
#define JTC_BACKEND_TRACEIR_H

#include "analysis/Alias.h"
#include "analysis/Liveness.h"
#include "backend/JitBackend.h"
#include "bytecode/OpSemantics.h"
#include "bytecode/Program.h"

#include <cstdint>
#include <vector>

namespace jtc {

namespace analysis {
class ModuleAnalysis;
}

namespace backend {

/// One trace IR operation.
struct IrOp {
  enum class Kind : uint8_t {
    Instr,       ///< Ordinary instruction, 1:1 with the interpreter.
    Guard,       ///< Interior conditional branch: assert the recorded
                 ///< direction, side-exit to Resume otherwise.
    CallStatic,  ///< InvokeStatic: push a frame, continue in the callee.
                 ///< The continuation is static, so it cannot diverge.
    CallVirtual, ///< InvokeVirtual: resolve the receiver, push a frame,
                 ///< and (mid-trace) diverge unless the resolved callee
                 ///< is the recorded one.
    Ret,         ///< Return/Ireturn: pop a frame; finishes the run at the
                 ///< bottom frame, diverges (mid-trace) unless the return
                 ///< site is the recorded one.
    Switch,      ///< Tableswitch: select the successor block; diverges
                 ///< (mid-trace) unless it is the recorded one.
  };

  Kind K = Kind::Instr;
  /// Instr: the instruction. Guard: the branch. Calls/Ret: the
  /// terminator (I.A is the callee / vtable slot).
  Instruction I;

  // Guard fields.
  bool GuardTaken = false;         ///< The trace follows the taken edge.
  BlockId Resume = InvalidBlockId; ///< Block interpretation resumes at.
  /// Validator-grade liveness at the exit: when HasLiveAtExit, only the
  /// locals in LiveAtExit must hold interpreter-exact values (dead locals
  /// may be stale). The unoptimized tier materializes everything
  /// regardless; the annotation records what the validator proved.
  bool HasLiveAtExit = false;
  analysis::LocalSet LiveAtExit;

  // Call fields.
  /// CallStatic: the callee. CallVirtual: the *expected* callee (the
  /// method whose entry the trace records next); InvalidMethod on the
  /// final block, where any resolution completes the trace.
  uint32_t Callee = InvalidMethod;
  uint32_t ReturnPc = 0; ///< Caller pc the new frame returns to.
  BlockId ReturnBlock = InvalidBlockId; ///< The same continuation's block.

  // Ret fields.
  bool HasValue = false; ///< Ireturn (transfer a value to the caller).
  /// Ret/Switch: the recorded return-site / successor block;
  /// InvalidBlockId on the final block, where any block completes the
  /// trace.
  BlockId ExpectBlock = InvalidBlockId;

  /// Switch: the tableswitch's index into PreparedModule::switchCode().
  uint32_t SwitchIdx = 0;

  /// Source position: the trace block (index into Blocks) and method pc
  /// this op lowers, the basis for interpreter-exact accounting at every
  /// side exit and trap.
  uint32_t SrcBlockIndex = 0;
  uint32_t SrcPc = 0;

  /// Check elision for heap-access Instr ops, set by applyMemFacts (None
  /// when the access was not proven, or the trace was not annotated).
  /// The compiler instantiates the access's helper at this level; an
  /// access that can no longer trap gets no trap exit at all.
  ElideLevel Elide = ElideLevel::None;
};

/// One trace lowered for backend execution.
struct TraceIR {
  TraceId Id = 0;
  /// Method of the first block. Later blocks may be in other methods --
  /// traces follow calls and returns across frames.
  uint32_t EntryMethod = 0;

  /// The trace's block sequence, copied: Trace objects live in the cache
  /// table, which may reallocate while a compiled trace is still
  /// dispatchable.
  std::vector<BlockId> Blocks;

  /// The lowered op stream, in execution order.
  std::vector<IrOp> Ops;

  /// How the final block's terminator selects the successor once every
  /// trace block has run.
  enum class CompleteKind : uint8_t {
    Static, ///< Goto, fallthrough or static call: NextFall is known.
    Branch, ///< Conditional: FinalTerm pops and picks NextTaken/NextFall.
    Callee, ///< Final op is a virtual call: the successor is the entry
            ///< block of whatever callee resolved at run time.
    At,     ///< Final op is a return or tableswitch: the successor is the
            ///< block it reports (or a return finishes the run at the
            ///< bottom frame).
  };
  CompleteKind Complete = CompleteKind::Static;
  Instruction FinalTerm;
  BlockId NextTaken = InvalidBlockId;
  BlockId NextFall = InvalidBlockId;

  /// Total instructions a completed run executes (== Trace::InstrCount).
  uint64_t InstrCount = 0;

  /// InstrPrefix[i] = instructions in blocks [0, i); size Blocks.size()+1.
  std::vector<uint64_t> InstrPrefix;

  /// Maximum operand-stack growth above the entry depth of the current
  /// frame run (runs are delimited by frame ops, which re-establish the
  /// stack slack). The JIT pre-extends the operand arena by this much so
  /// template code can push with raw stores.
  uint32_t MaxPush = 0;
};

/// Lowering outcome: Ok, or the typed reason the backend must fall back
/// to the interpreter for this trace.
struct LowerResult {
  CompileFallback Why = CompileFallback::None;
  TraceIR IR;

  bool ok() const { return Why == CompileFallback::None; }
};

/// Lowers \p T into a TraceIR, or reports why its shape cannot run on the
/// template tier (a halt anywhere, or a recorded block
/// sequence inconsistent with its terminators -- possible under
/// fault-injection, where falling back reproduces the interpreter's
/// divergence behaviour exactly). \p Facts, when provided, annotates
/// guards with liveness the way validation does.
LowerResult lowerTrace(const PreparedModule &PM, const Trace &T,
                       const analysis::ModuleAnalysis *Facts);

/// The alias analysis' check-elision facts for the trace block sequence
/// \p Blocks (analysis::analyzeTraceMemory over the module's shared
/// static facts), ordered by (BlockIndex, Pc).
std::vector<analysis::TraceMemFact>
traceMemFacts(const PreparedModule &PM, const std::vector<BlockId> &Blocks);

/// Sets the elision level of each heap access in \p IR that \p Facts
/// (traceMemFacts of the lowered trace) name. The facts hold only while
/// execution is inside the trace -- every block before the access's
/// matched the recorded sequence -- which is exactly when compiled trace
/// code runs.
void applyMemFacts(TraceIR &IR,
                   const std::vector<analysis::TraceMemFact> &Facts);

} // namespace backend
} // namespace jtc

#endif // JTC_BACKEND_TRACEIR_H
