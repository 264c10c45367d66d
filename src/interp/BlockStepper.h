//===- interp/BlockStepper.h - Fig. 2 dispatch model ------------*- C++ -*-===//
///
/// \file
/// The direct-threaded-inlining dispatch model of the paper's Figure 2:
/// one dispatch per basic block. The stepper is the VM's one fast
/// execution core: step() runs exactly one block of the module's
/// pre-decoded code (PreparedModule::code) through direct-threaded
/// handlers -- one per SlotOp, each ending in its own indirect jump to
/// the next slot's handler -- with the operand-stack top and locals base
/// held in registers, and exposes the resulting block transition -- the
/// event stream the profiler and trace cache consume. TraceVM drives a
/// BlockStepper directly: one step() per block outside traces, and one
/// runTrace() per block-stepped trace run, which carries on from block to
/// block inside the same dispatch loop while the trace's blocks follow.
/// Plain and profiled runs use runBlocks() / runBlocksWithHook().
///
//===----------------------------------------------------------------------===//

#ifndef JTC_INTERP_BLOCKSTEPPER_H
#define JTC_INTERP_BLOCKSTEPPER_H

#include "interp/PreparedModule.h"
#include "interp/RunResult.h"
#include "runtime/Machine.h"

#include <cstddef>
#include <span>

namespace jtc {

/// Executes a prepared module one basic block at a time.
class BlockStepper {
public:
  /// \p Mach must be a fresh machine over \p PM's module.
  BlockStepper(const PreparedModule &PM, Machine &Mach);

  /// Pushes the entry frame; currentBlock() becomes the entry block.
  void start();

  enum class StepStatus : uint8_t {
    Continue, ///< Block executed; currentBlock() is the successor.
    Finished, ///< Entry method returned or Halt executed.
    Trapped,  ///< A runtime trap fired mid-block.
  };

  /// Executes currentBlock() to its end and computes the successor block.
  /// A trap mid-block counts the trapping instruction (not the ones after
  /// it) and leaves currentBlock() invalid, as does finishing.
  StepStatus step() {
    return exec</*InTrace=*/false>(nullptr, 0, 0, nullptr);
  }

  /// The outcome of one runTrace().
  struct TraceStep {
    StepStatus Status;
    /// Blocks executed (>= 1); the block a trap fired in counts as run.
    uint32_t BlocksRun;
  };

  /// Executes \p Blocks[0], which must be currentBlock(), and then, in the
  /// same call, each following block of \p Blocks for as long as the
  /// previous block continued to it and fewer than \p Budget instructions
  /// have run in total: the trace run of step() calls that stops where
  /// step()'s caller would stop comparing successors. On a Continue
  /// status, currentBlock() is the successor of the last block run, which
  /// is either past the end of \p Blocks, not the next recorded block, or
  /// reached with instructions() >= \p Budget.
  TraceStep runTrace(std::span<const BlockId> Blocks, uint64_t Budget);

  /// The block about to be executed by the next step().
  BlockId currentBlock() const { return Cur; }

  /// Repositions the stepper at \p B without executing anything: after
  /// native code runs a trace, the stepper must resume at the successor
  /// (or side-exit) block the native code reached.
  void resumeAt(BlockId B) { Cur = B; }

  /// Credits \p N instructions executed outside step() (by JIT-compiled
  /// trace code) so instructions() stays the whole-run total no matter
  /// which tier executed.
  void creditInstructions(uint64_t N) { Instructions += N; }

  /// Total instructions executed so far.
  uint64_t instructions() const { return Instructions; }

  const PreparedModule &prepared() const { return *PM; }
  Machine &machine() { return *Mach; }

private:
  /// The one executor body behind step() (one block) and runTrace()
  /// (InTrace: up to \p Len blocks of \p Blocks under \p Budget, their
  /// count stored to \p BlocksRun).
  template <bool InTrace>
  StepStatus exec(const BlockId *Blocks, uint32_t Len, uint64_t Budget,
                  uint32_t *BlocksRun);

  const PreparedModule *PM;
  Machine *Mach;
  BlockId Cur = InvalidBlockId;
  uint64_t Instructions = 0;
};

/// Runs \p Stepper to completion, invoking \p OnDispatch(NextBlock) before
/// every block dispatch (including the entry block). The hook is a
/// template parameter so a no-op hook compiles to the plain interpreter --
/// this is how the Table VI experiment compares the profiled and
/// unprofiled interpreters on identical dispatch loops.
template <typename HookT>
RunResult runBlocksWithHook(BlockStepper &Stepper, HookT &&OnDispatch,
                            uint64_t MaxInstructions = ~0ull) {
  RunResult R;
  Stepper.start();
  while (true) {
    OnDispatch(Stepper.currentBlock());
    ++R.Dispatches;
    BlockStepper::StepStatus S = Stepper.step();
    R.Instructions = Stepper.instructions();
    if (S == BlockStepper::StepStatus::Finished) {
      R.Status = RunStatus::Finished;
      return R;
    }
    if (S == BlockStepper::StepStatus::Trapped) {
      R.Status = RunStatus::Trapped;
      R.Trap = Stepper.machine().trap();
      return R;
    }
    if (R.Instructions >= MaxInstructions) {
      R.Status = RunStatus::BudgetExhausted;
      return R;
    }
  }
}

/// Runs \p Stepper to completion with no per-dispatch hook.
RunResult runBlocks(BlockStepper &Stepper, uint64_t MaxInstructions = ~0ull);

} // namespace jtc

#endif // JTC_INTERP_BLOCKSTEPPER_H
