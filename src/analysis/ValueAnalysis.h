//===- analysis/ValueAnalysis.h - Typed/constant abstract interp *- C++ -*-===//
///
/// \file
/// Forward abstract interpretation of a method's operand stack and locals
/// over the AbstractValue lattice: type facts (int vs reference, class
/// may-sets, nullability) and integer constant/range facts in one pass,
/// with constant conditions pruning infeasible branch and switch edges.
/// This is the engine behind the typed verifier, the reachability/
/// dead-branch facts, the lint CLI and the trace optimizer's constant
/// seeding.
///
/// Requires a method that already passed the structural + stack-height
/// verifier pass (merge heights consistent, targets in range).
///
//===----------------------------------------------------------------------===//

#ifndef JTC_ANALYSIS_VALUE_ANALYSIS_H
#define JTC_ANALYSIS_VALUE_ANALYSIS_H

#include "analysis/Cfg.h"
#include "analysis/Value.h"

#include <cstdint>
#include <memory_resource>
#include <optional>
#include <vector>

namespace jtc {
namespace analysis {

/// Abstract machine frame: one lattice value per local and stack slot.
/// `Reachable` distinguishes bottom (no execution reaches the block) from
/// a genuinely empty frame.
struct FrameState {
  bool Reachable = false;
  std::vector<AbstractValue> Locals;
  std::vector<AbstractValue> Stack;

  bool operator==(const FrameState &O) const = default;
};

/// What the analysis concluded about one conditional branch or switch.
enum class BranchDecision : uint8_t {
  Unknown,     ///< Both outcomes feasible (or the instruction unreachable).
  AlwaysTaken, ///< Condition provably true / single feasible switch target.
  NeverTaken,  ///< Condition provably false; only the fallthrough survives.
};

/// Fixpoint result for one method. Stores the frame state at every block
/// entry, packed into one value array; per-instruction facts are
/// recomputed on demand by replaying the transfer function through the
/// block (blocks are short).
class MethodValueFacts {
public:
  /// Runs the analysis to fixpoint. \p Cfg must outlive the result,
  /// whose tables are allocated from \p Mem.
  static MethodValueFacts
  compute(const MethodCfg &Cfg,
          std::pmr::memory_resource *Mem = std::pmr::get_default_resource());

  const MethodCfg &cfg() const { return *Cfg; }

  /// Frame state at the entry of \p Block (Reachable=false when constant
  /// propagation proved the block dead, even if raw edges reach it).
  FrameState blockEntry(uint32_t Block) const;

  bool blockReachable(uint32_t Block) const {
    return Entry[Block].Reachable;
  }

  /// Decision for the Branch/Switch instruction at \p Pc; Unknown for
  /// other opcodes or unreachable code.
  BranchDecision decisionAt(uint32_t Pc) const { return Decisions[Pc]; }

  /// Replays \p Block from its entry state, invoking
  /// `F(pc, const FrameState &before)` for each instruction in order.
  /// No-op when the block is unreachable.
  template <typename Fn> void forEachInstruction(uint32_t Block, Fn &&F) const {
    if (!blockReachable(Block))
      return;
    FrameState S = blockEntry(Block);
    const CfgBlock &B = Cfg->block(Block);
    // Stops early if a provable trap (e.g. constant division by zero)
    // abandons the frame mid-block: the instructions after it never run.
    for (uint32_t Pc = B.Start; Pc < B.End && S.Reachable; ++Pc) {
      F(Pc, static_cast<const FrameState &>(S));
      stepInstruction(Cfg->module(), Cfg->method(), Pc, S);
    }
  }

  /// State immediately before the instruction at \p Pc (replays the
  /// containing block). Unreachable instructions yield a !Reachable state.
  FrameState stateBefore(uint32_t Pc) const;

  /// Applies the effect of the instruction at \p Pc to \p S. Public so
  /// the typed checker and the fuzzer's refinement audit share one
  /// transfer function. Conservative: trap outcomes simply stop
  /// contributing to the state (the frame is abandoned on a trap).
  static void stepInstruction(const Module &M, const Method &Fn, uint32_t Pc,
                              FrameState &S);

  /// Classifies the outcome of the conditional branch at \p Pc given the
  /// abstract condition operand(s); used by stepInstruction's callers and
  /// the edge-pruning logic.
  static BranchDecision decideBranch(const Instruction &I,
                                     const FrameState &Before);

  /// Feasible successor pcs of the Tableswitch at \p Pc given the
  /// abstract selector, or nullopt when all listed targets are feasible.
  static std::optional<std::vector<uint32_t>>
  feasibleSwitchTargets(const Method &Fn, uint32_t Pc,
                        const FrameState &Before);

private:
  /// Where a block's entry state sits in EntryValues: the method's
  /// locals, then StackHeight stack slots. Unreachable states are empty.
  struct PackedState {
    uint32_t First = 0;
    uint32_t StackHeight = 0;
    bool Reachable = false;
  };

  MethodValueFacts(const MethodCfg &Cfg, std::pmr::memory_resource *Mem)
      : Cfg(&Cfg), Entry(Mem), EntryValues(Mem), Decisions(Mem) {}

  const MethodCfg *Cfg;
  std::pmr::vector<PackedState> Entry;         ///< Per block.
  std::pmr::vector<AbstractValue> EntryValues;
  std::pmr::vector<BranchDecision> Decisions; ///< Per pc.
};

} // namespace analysis
} // namespace jtc

#endif // JTC_ANALYSIS_VALUE_ANALYSIS_H
