//===- tests/validate_test.cpp - Translation validator --------------------===//
///
/// The validator's contract has two sides. Soundness of the check itself:
/// every segment the stock optimizer produces must be proved a refinement
/// (no false rejections), including segments that exercise guard
/// elimination, liveness at exits and entry-constant seeding. Power of
/// the check: every deliberate miscompilation the UnsoundPass hook can
/// inject must be rejected with its typed reason, both on hand-built
/// segments and on traces the VM builds for real programs. A pinned
/// corpus under tests/corpus/validate/ replays accepted and rejected
/// module/mutation pairs against their expected reason codes.
///
/// JTC_VALIDATE_CORPUS_DIR is injected by the build (tests/CMakeLists.txt).
///
//===----------------------------------------------------------------------===//

#include "validate/Validator.h"

#include "SessionStats.h"
#include "TestPrograms.h"
#include "analysis/Analysis.h"
#include "opt/TraceOptimizer.h"
#include "text/AsmParser.h"
#include "vm/TraceVM.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

using namespace jtc;
using testprog::promoteAll;
using validate::Reason;
using validate::reasonName;
using validate::Result;
using validate::validateSegment;
using validate::validateTrace;

namespace {

/// Builds a segment from raw ops (no guards); mirrors opt_test.
LinearSegment segment(std::vector<Instruction> Code, uint32_t Locals = 4) {
  LinearSegment S;
  S.NumLocals = Locals;
  S.ScratchBase = Locals;
  for (const Instruction &I : Code)
    S.Ops.push_back(LinearOp::instr(I));
  return S;
}

LinearOp guard(Opcode Op, bool Taken, uint32_t ExitPc = 0) {
  LinearOp G = LinearOp::guard(Op, Taken);
  G.ExitPc = ExitPc;
  return G;
}

/// Runs the stock optimizer over \p In and validates the result.
Result optimizeAndValidate(const LinearSegment &In,
                           OptConfig Cfg = OptConfig()) {
  OptStats St;
  LinearSegment Out = optimizeSegment(In, St, Cfg);
  return validateSegment(In, Out);
}

/// The six deliberate miscompilations.
const UnsoundPass AllMutations[] = {
    UnsoundPass::DropGuard,          UnsoundPass::ReorderStorePastExit,
    UnsoundPass::WrongConstant,      UnsoundPass::KillLiveOnExit,
    UnsoundPass::ResurrectDeadStore, UnsoundPass::AliasConfusedLoad,
};

OptConfig mutated(UnsoundPass P) {
  OptConfig Cfg;
  Cfg.Mutate = P;
  return Cfg;
}

} // namespace

//===----------------------------------------------------------------------===//
// Acceptance: stock optimizations prove through
//===----------------------------------------------------------------------===//

TEST(ValidatorTest, AcceptsTheStockOptimizerOnRepresentativeSegments) {
  std::vector<LinearSegment> Cases;
  // Constant folding feeding an effect.
  Cases.push_back(segment({
      Instruction(Opcode::Iconst, 6),
      Instruction(Opcode::Iconst, 7),
      Instruction(Opcode::Imul),
      Instruction(Opcode::Iprint),
  }));
  // Load forwarding through a deferred store.
  Cases.push_back(segment({
      Instruction(Opcode::Iconst, 5),
      Instruction(Opcode::Istore, 0),
      Instruction(Opcode::Iload, 0),
      Instruction(Opcode::Iload, 0),
      Instruction(Opcode::Iadd),
      Instruction(Opcode::Iprint),
  }));
  // Dead-store elimination.
  Cases.push_back(segment({
      Instruction(Opcode::Iconst, 1),
      Instruction(Opcode::Istore, 2),
      Instruction(Opcode::Iconst, 2),
      Instruction(Opcode::Istore, 2),
  }));
  // Load/store cancellation and push/pop cancellation.
  Cases.push_back(segment({
      Instruction(Opcode::Iload, 1),
      Instruction(Opcode::Istore, 1),
      Instruction(Opcode::Iconst, 9),
      Instruction(Opcode::Pop),
  }));
  // Iinc chains.
  Cases.push_back(segment({
      Instruction(Opcode::Iconst, 10),
      Instruction(Opcode::Istore, 0),
      Instruction(Opcode::Iinc, 0, 5),
      Instruction(Opcode::Iinc, 0, -2),
      Instruction(Opcode::Iload, 0),
      Instruction(Opcode::Iprint),
  }));
  // Copy propagation pinned before the source changes.
  Cases.push_back(segment({
      Instruction(Opcode::Iload, 1),
      Instruction(Opcode::Istore, 0),
      Instruction(Opcode::Iconst, 7),
      Instruction(Opcode::Istore, 1),
      Instruction(Opcode::Iload, 0),
      Instruction(Opcode::Iprint),
  }));
  // Incoming stack operands.
  Cases.push_back(segment({
      Instruction(Opcode::Iadd),
      Instruction(Opcode::Istore, 0),
  }));
  // Unfoldable trapping division survives in place.
  Cases.push_back(segment({
      Instruction(Opcode::Iconst, 5),
      Instruction(Opcode::Iconst, 0),
      Instruction(Opcode::Idiv),
      Instruction(Opcode::Pop),
  }));

  for (size_t I = 0; I < Cases.size(); ++I) {
    Result R = optimizeAndValidate(Cases[I]);
    EXPECT_TRUE(R.Ok) << "case " << I << ": " << reasonName(R.Why) << ": "
                      << R.Detail;
  }
}

TEST(ValidatorTest, AcceptsEveryPassToggleCombination) {
  // A segment that every pass can bite on: a foldable expression, a
  // forwardable store, a dead store, and a data-dependent guard owing a
  // dirty-local flush.
  LinearSegment In = segment({
      Instruction(Opcode::Iconst, 6),
      Instruction(Opcode::Iconst, 7),
      Instruction(Opcode::Imul),
      Instruction(Opcode::Istore, 0),
      Instruction(Opcode::Iload, 0),
      Instruction(Opcode::Iprint),
      Instruction(Opcode::Iconst, 1),
      Instruction(Opcode::Istore, 2),
      Instruction(Opcode::Iload, 1),
  });
  In.Ops.push_back(guard(Opcode::IfNe, /*Taken=*/true));
  In.Ops.push_back(LinearOp::instr(Instruction(Opcode::Iconst, 3)));
  In.Ops.push_back(LinearOp::instr(Instruction(Opcode::Istore, 2)));

  for (unsigned Mask = 0; Mask < 32; ++Mask) {
    OptConfig Cfg;
    Cfg.FoldConstants = Mask & 1;
    Cfg.ForwardLoads = Mask & 2;
    Cfg.DeferStores = Mask & 4;
    Cfg.EliminateGuards = Mask & 8;
    Cfg.LivenessAtExits = Mask & 16;
    Result R = optimizeAndValidate(In, Cfg);
    EXPECT_TRUE(R.Ok) << "mask " << Mask << ": " << reasonName(R.Why) << ": "
                      << R.Detail;
  }
}

TEST(ValidatorTest, AcceptsStaticallyJustifiedGuardElimination) {
  // The guard's operand is an in-segment constant agreeing with the
  // recorded direction: eliminating it needs no optimized counterpart.
  LinearSegment Src = segment({Instruction(Opcode::Iconst, 0)});
  Src.Ops.push_back(guard(Opcode::IfEq, /*Taken=*/true));
  LinearSegment Opt = segment({});
  EXPECT_TRUE(validateSegment(Src, Opt).Ok);
}

TEST(ValidatorTest, AcceptsEntryFactJustifiedGuardElimination) {
  // The operand is a local proved constant at segment entry (analysis
  // facts): both sides carry the same EntryConsts assumption, so the
  // validator may use it to discharge the guard.
  LinearSegment Src = segment({Instruction(Opcode::Iload, 0)});
  Src.EntryConsts = {{0, 5}};
  Src.Ops.push_back(guard(Opcode::IfGt, /*Taken=*/true));
  LinearSegment Opt = segment({});
  Opt.EntryConsts = {{0, 5}};
  EXPECT_TRUE(validateSegment(Src, Opt).Ok);

  // The same elimination is unjustified when the assumed direction
  // contradicts the constant.
  LinearSegment Bad = Src;
  Bad.Ops.back() = guard(Opcode::IfLt, /*Taken=*/true);
  Result R = validateSegment(Bad, Opt);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Why, Reason::GuardDropped);
}

TEST(ValidatorTest, AcceptsDominatedGuardElimination) {
  // The same check over the same value already passed: the repeat cannot
  // fire and may be dropped.
  LinearSegment Src = segment({Instruction(Opcode::Iload, 1)});
  Src.Ops.push_back(guard(Opcode::IfNe, /*Taken=*/true));
  Src.Ops.push_back(LinearOp::instr(Instruction(Opcode::Iload, 1)));
  Src.Ops.push_back(guard(Opcode::IfNe, /*Taken=*/true));

  LinearSegment Opt = segment({Instruction(Opcode::Iload, 1)});
  Opt.Ops.push_back(guard(Opcode::IfNe, /*Taken=*/true));
  EXPECT_TRUE(validateSegment(Src, Opt).Ok);

  // Dropping both occurrences is not dominated: the first check never
  // passed anywhere.
  Result R = validateSegment(Src, segment({}));
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Why, Reason::GuardDropped);
}

//===----------------------------------------------------------------------===//
// Typed rejections on hand-mangled segments
//===----------------------------------------------------------------------===//

TEST(ValidatorTest, RejectsFrameShapeChanges) {
  LinearSegment Src = segment({Instruction(Opcode::Nop)});
  LinearSegment Opt = segment({Instruction(Opcode::Nop)}, /*Locals=*/5);
  Opt.ScratchBase = 5;
  Result R = validateSegment(Src, Opt);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Why, Reason::ShapeMismatch);
}

TEST(ValidatorTest, ReportsUnsupportedOpcodesWithTheirMnemonic) {
  // Control-flow opcodes never appear inside a linear segment; a caller
  // handing the validator one gets a typed refusal, not a crash.
  LinearSegment Src = segment({Instruction(Opcode::Halt)});
  Result R = validateSegment(Src, Src);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Why, Reason::Unsupported);
  EXPECT_NE(R.Detail.find("halt"), std::string::npos) << R.Detail;
}

TEST(ValidatorTest, RejectsDroppedGuards) {
  LinearSegment Src = segment({Instruction(Opcode::Iload, 1)});
  Src.Ops.push_back(guard(Opcode::IfNe, /*Taken=*/true));
  // The optimized side silently discards the side exit (and balances the
  // stack so nothing else differs).
  LinearSegment Opt = segment({});
  Result R = validateSegment(Src, Opt);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Why, Reason::GuardDropped);
}

TEST(ValidatorTest, RejectsInventedGuards) {
  LinearSegment Src = segment({});
  LinearSegment Opt = segment({Instruction(Opcode::Iload, 1)});
  Opt.Ops.push_back(guard(Opcode::IfNe, /*Taken=*/true));
  Result R = validateSegment(Src, Opt);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Why, Reason::GuardExtra);
}

TEST(ValidatorTest, RejectsGuardsOverDifferentValues) {
  LinearSegment Src = segment({Instruction(Opcode::Iload, 1)});
  Src.Ops.push_back(guard(Opcode::IfNe, /*Taken=*/true));
  LinearSegment Opt = segment({Instruction(Opcode::Iload, 2)});
  Opt.Ops.push_back(guard(Opcode::IfNe, /*Taken=*/true));
  Result R = validateSegment(Src, Opt);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Why, Reason::GuardOperandMismatch);
}

TEST(ValidatorTest, RejectsRetargetedExits) {
  LinearSegment Src = segment({Instruction(Opcode::Iload, 1)});
  Src.Ops.push_back(guard(Opcode::IfNe, /*Taken=*/true, /*ExitPc=*/3));
  LinearSegment Opt = segment({Instruction(Opcode::Iload, 1)});
  Opt.Ops.push_back(guard(Opcode::IfNe, /*Taken=*/true, /*ExitPc=*/7));
  Result R = validateSegment(Src, Opt);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Why, Reason::GuardExitMismatch);
}

TEST(ValidatorTest, RejectsStoresMovedPastASideExit) {
  LinearSegment Src = segment({
      Instruction(Opcode::Iconst, 1),
      Instruction(Opcode::Istore, 0),
      Instruction(Opcode::Iload, 1),
  });
  Src.Ops.push_back(guard(Opcode::IfNe, /*Taken=*/true));
  // The store lands after the guard: correct at segment end, stale at
  // the side exit.
  LinearSegment Opt = segment({Instruction(Opcode::Iload, 1)});
  Opt.Ops.push_back(guard(Opcode::IfNe, /*Taken=*/true));
  Opt.Ops.push_back(LinearOp::instr(Instruction(Opcode::Iconst, 1)));
  Opt.Ops.push_back(LinearOp::instr(Instruction(Opcode::Istore, 0)));
  Result R = validateSegment(Src, Opt);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Why, Reason::SideExitLocalMismatch);
}

TEST(ValidatorTest, RejectsWrongStackAtASideExit) {
  LinearSegment Src = segment({
      Instruction(Opcode::Iconst, 5),
      Instruction(Opcode::Iload, 1),
  });
  Src.Ops.push_back(guard(Opcode::IfNe, /*Taken=*/true));
  LinearSegment Opt = segment({
      Instruction(Opcode::Iconst, 6),
      Instruction(Opcode::Iload, 1),
  });
  Opt.Ops.push_back(guard(Opcode::IfNe, /*Taken=*/true));
  Result R = validateSegment(Src, Opt);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Why, Reason::SideExitStackMismatch);
}

TEST(ValidatorTest, RejectsEffectsMovedAcrossASideExit) {
  LinearSegment Src = segment({
      Instruction(Opcode::Iload, 0),
      Instruction(Opcode::Iprint),
      Instruction(Opcode::Iload, 1),
  });
  Src.Ops.push_back(guard(Opcode::IfNe, /*Taken=*/true));
  // Same print, same operand -- but sunk below the exit, so a firing
  // guard would lose it.
  LinearSegment Opt = segment({Instruction(Opcode::Iload, 1)});
  Opt.Ops.push_back(guard(Opcode::IfNe, /*Taken=*/true));
  Opt.Ops.push_back(LinearOp::instr(Instruction(Opcode::Iload, 0)));
  Opt.Ops.push_back(LinearOp::instr(Instruction(Opcode::Iprint)));
  Result R = validateSegment(Src, Opt);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Why, Reason::SideExitEffectMismatch);
}

TEST(ValidatorTest, RejectsReorderedOrReoperandedEffects) {
  LinearSegment Src = segment({
      Instruction(Opcode::Iload, 0),
      Instruction(Opcode::Iprint),
  });
  LinearSegment Opt = segment({
      Instruction(Opcode::Iload, 1),
      Instruction(Opcode::Iprint),
  });
  Result R = validateSegment(Src, Opt);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Why, Reason::EffectMismatch);
}

TEST(ValidatorTest, RejectsWrongFinalLocals) {
  LinearSegment Src = segment({
      Instruction(Opcode::Iconst, 1),
      Instruction(Opcode::Istore, 0),
  });
  LinearSegment Opt = segment({
      Instruction(Opcode::Iconst, 2),
      Instruction(Opcode::Istore, 0),
  });
  Result R = validateSegment(Src, Opt);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Why, Reason::FinalLocalMismatch);
}

TEST(ValidatorTest, RejectsWrongFinalStack) {
  LinearSegment Src = segment({Instruction(Opcode::Iconst, 1)});
  LinearSegment Opt = segment({Instruction(Opcode::Iconst, 2)});
  Result R = validateSegment(Src, Opt);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Why, Reason::FinalStackMismatch);
}

TEST(ValidatorTest, ScratchLocalsMayDiverge) {
  // Locals at or above ScratchBase are synthetic inlined-frame slots,
  // dead outside the segment: dropping their stores must validate.
  LinearSegment Src = segment({
      Instruction(Opcode::Iconst, 3),
      Instruction(Opcode::Istore, 5),
  },
                              /*Locals=*/8);
  Src.ScratchBase = 4;
  LinearSegment Opt = segment({}, /*Locals=*/8);
  Opt.ScratchBase = 4;
  EXPECT_TRUE(validateSegment(Src, Opt).Ok);
}

//===----------------------------------------------------------------------===//
// The UnsoundPass mutations: each class rejected with its typed reason
//===----------------------------------------------------------------------===//

namespace {

/// A segment with a data-dependent guard owing a dirty-local flush, a
/// foldable constant, stores live at both the exit and the end, an
/// overwritten heap store and an unestablished heap load -- every
/// mutation class has something to corrupt.
LinearSegment richGuardedSegment() {
  LinearSegment S = segment({
      Instruction(Opcode::Iconst, 6),
      Instruction(Opcode::Iconst, 7),
      Instruction(Opcode::Imul),
      Instruction(Opcode::Istore, 0),
      Instruction(Opcode::Iload, 1),
  });
  S.Ops.push_back(guard(Opcode::IfNe, /*Taken=*/true));
  S.Ops.push_back(LinearOp::instr(Instruction(Opcode::Iload, 0)));
  S.Ops.push_back(LinearOp::instr(Instruction(Opcode::Iprint)));
  // obj.f0 = 1 then obj.f0 = 2: dead-store elimination's (and so
  // ResurrectDeadStore's) site.
  S.Ops.push_back(LinearOp::instr(Instruction(Opcode::Iload, 2)));
  S.Ops.push_back(LinearOp::instr(Instruction(Opcode::Iconst, 1)));
  S.Ops.push_back(LinearOp::instr(Instruction(Opcode::PutField, 0)));
  S.Ops.push_back(LinearOp::instr(Instruction(Opcode::Iload, 2)));
  S.Ops.push_back(LinearOp::instr(Instruction(Opcode::Iconst, 2)));
  S.Ops.push_back(LinearOp::instr(Instruction(Opcode::PutField, 0)));
  // other.f1 was never established: AliasConfusedLoad's site.
  S.Ops.push_back(LinearOp::instr(Instruction(Opcode::Iload, 3)));
  S.Ops.push_back(LinearOp::instr(Instruction(Opcode::GetField, 1)));
  S.Ops.push_back(LinearOp::instr(Instruction(Opcode::Iprint)));
  return S;
}

} // namespace

TEST(ValidatorMutationTest, EveryMutationClassIsRejectedAndStockIsAccepted) {
  LinearSegment In = richGuardedSegment();
  EXPECT_TRUE(optimizeAndValidate(In).Ok);
  for (UnsoundPass P : AllMutations) {
    Result R = optimizeAndValidate(In, mutated(P));
    EXPECT_FALSE(R.Ok) << unsoundPassName(P) << " must not prove through";
    EXPECT_NE(R.Why, Reason::None) << unsoundPassName(P);
  }
}

TEST(ValidatorMutationTest, DropGuardIsTypedGuardDropped) {
  LinearSegment In = segment({Instruction(Opcode::Iload, 1)});
  In.Ops.push_back(guard(Opcode::IfNe, /*Taken=*/true));
  Result R = optimizeAndValidate(In, mutated(UnsoundPass::DropGuard));
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Why, Reason::GuardDropped);
  EXPECT_TRUE(optimizeAndValidate(In).Ok);
}

TEST(ValidatorMutationTest, ReorderStorePastExitIsTypedSideExitLocal) {
  LinearSegment In = segment({
      Instruction(Opcode::Iconst, 3),
      Instruction(Opcode::Istore, 0),
      Instruction(Opcode::Iload, 1),
  });
  In.Ops.push_back(guard(Opcode::IfNe, /*Taken=*/true));
  In.Ops.push_back(LinearOp::instr(Instruction(Opcode::Iload, 0)));
  In.Ops.push_back(LinearOp::instr(Instruction(Opcode::Iprint)));
  Result R =
      optimizeAndValidate(In, mutated(UnsoundPass::ReorderStorePastExit));
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Why, Reason::SideExitLocalMismatch);
  EXPECT_TRUE(optimizeAndValidate(In).Ok);
}

TEST(ValidatorMutationTest, WrongConstantIsTypedEffectOrStateMismatch) {
  // Printed: the wrong fold surfaces as a diverging effect operand.
  LinearSegment Printed = segment({
      Instruction(Opcode::Iconst, 6),
      Instruction(Opcode::Iconst, 7),
      Instruction(Opcode::Imul),
      Instruction(Opcode::Iprint),
  });
  Result R = optimizeAndValidate(Printed, mutated(UnsoundPass::WrongConstant));
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Why, Reason::EffectMismatch);
  EXPECT_TRUE(optimizeAndValidate(Printed).Ok);

  // Stored: it surfaces as a wrong final local.
  LinearSegment Stored = segment({
      Instruction(Opcode::Iconst, 6),
      Instruction(Opcode::Iconst, 7),
      Instruction(Opcode::Imul),
      Instruction(Opcode::Istore, 0),
  });
  R = optimizeAndValidate(Stored, mutated(UnsoundPass::WrongConstant));
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Why, Reason::FinalLocalMismatch);
  EXPECT_TRUE(optimizeAndValidate(Stored).Ok);
}

TEST(ValidatorMutationTest, KillLiveOnExitIsTypedLocalMismatch) {
  // Killed at the segment-end flush: the final local is simply wrong.
  LinearSegment AtEnd = segment({
      Instruction(Opcode::Iconst, 5),
      Instruction(Opcode::Istore, 0),
  });
  Result R = optimizeAndValidate(AtEnd, mutated(UnsoundPass::KillLiveOnExit));
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Why, Reason::FinalLocalMismatch);
  EXPECT_TRUE(optimizeAndValidate(AtEnd).Ok);

  // Killed at a guard flush: wrong already at the side exit.
  LinearSegment AtGuard = segment({
      Instruction(Opcode::Iconst, 3),
      Instruction(Opcode::Istore, 0),
      Instruction(Opcode::Iload, 1),
  });
  AtGuard.Ops.push_back(guard(Opcode::IfNe, /*Taken=*/true));
  R = optimizeAndValidate(AtGuard, mutated(UnsoundPass::KillLiveOnExit));
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Why, Reason::SideExitLocalMismatch);
  EXPECT_TRUE(optimizeAndValidate(AtGuard).Ok);
}

TEST(ValidatorMutationTest, ResurrectDeadStoreIsTypedMemStoreUnjustified) {
  // obj.f0 = 1 is dead (overwritten by obj.f0 = 2); the mutation re-emits
  // it *after* the overwrite, making the stale 1 the cell's final
  // content. The symbolic final heaps diverge.
  LinearSegment In = segment({
      Instruction(Opcode::Iload, 0),
      Instruction(Opcode::Iconst, 1),
      Instruction(Opcode::PutField, 0),
      Instruction(Opcode::Iload, 0),
      Instruction(Opcode::Iconst, 2),
      Instruction(Opcode::PutField, 0),
  });
  Result R = optimizeAndValidate(In, mutated(UnsoundPass::ResurrectDeadStore));
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Why, Reason::MemStoreUnjustified);
  EXPECT_TRUE(optimizeAndValidate(In).Ok);
}

TEST(ValidatorMutationTest, AliasConfusedLoadIsTypedMemLoadUnjustified) {
  // obj.f0 was never established inside the segment, so eliminating the
  // load (with a fabricated value) has no dominating-access proof.
  LinearSegment In = segment({
      Instruction(Opcode::Iload, 0),
      Instruction(Opcode::GetField, 0),
      Instruction(Opcode::Iprint),
  });
  Result R = optimizeAndValidate(In, mutated(UnsoundPass::AliasConfusedLoad));
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Why, Reason::MemLoadUnjustified);
  EXPECT_TRUE(optimizeAndValidate(In).Ok);
}

//===----------------------------------------------------------------------===//
// Whole traces from real programs
//===----------------------------------------------------------------------===//

namespace {

/// Validates every live trace of \p VM under \p Cfg, returning the
/// rejection reasons observed (empty: everything proved through).
std::vector<Reason> reasonsUnder(const PreparedModule &PM, const TraceVM &VM,
                                 const OptConfig &Cfg,
                                 const analysis::ModuleAnalysis *Facts) {
  std::vector<Reason> Out;
  for (const Trace &T : VM.traceCache().traces()) {
    if (!T.Alive)
      continue;
    Result R = validateTrace(PM, T, Cfg, Facts);
    if (!R.Ok)
      Out.push_back(R.Why);
  }
  return Out;
}

} // namespace

namespace {

/// Hot loop that stores a constant into t (local 1) and then takes a
/// data-dependent branch whose exit path READS t: the deferred store is
/// owed at that guard, giving the flush-corrupting mutations a site to
/// fire on. Locals: 0=i, 1=t, 2=acc.
Module storeBeforeExitLoop() {
  Assembler Asm;
  uint32_t Main = Asm.declareMethod("main", 0, 3, false);
  {
    MethodBuilder B = Asm.beginMethod(Main);
    Label Loop = B.newLabel(), Done = B.newLabel(), Bail = B.newLabel();
    B.iconst(0);
    B.istore(0);
    B.iconst(0);
    B.istore(2);
    B.bind(Loop);
    B.iload(0);
    B.iconst(60000);
    B.branch(Opcode::IfIcmpGe, Done);
    B.iconst(7);
    B.istore(1); // t = 7: deferred inside the segment
    B.iload(2);
    B.branch(Opcode::IfLt, Bail); // side exit that reads t
    B.iload(2);
    B.iload(1);
    B.emit(Opcode::Iadd);
    B.istore(2);
    B.iinc(0, 1);
    B.branch(Opcode::Goto, Loop);
    B.bind(Bail);
    B.iload(1);
    B.emit(Opcode::Iprint);
    B.halt();
    B.bind(Done);
    B.iload(2);
    B.emit(Opcode::Iprint);
    B.halt();
    B.finish();
  }
  Asm.setEntry(Main);
  return Asm.build();
}

/// Hot loop with array traffic the memory passes transform: a dead store
/// (a[0]=1 overwritten by a[0]=i) and a load of a never-written cell
/// (a[1]) -- the sites of the two alias mutations. The loaded cell
/// feeds a print so the alias mutations corrupt an observable effect
/// rather than a live local. Locals: 0=a, 1=i.
Module arrayCellLoop() {
  Assembler Asm;
  uint32_t Main = Asm.declareMethod("main", 0, 2, false);
  {
    MethodBuilder B = Asm.beginMethod(Main);
    Label Loop = B.newLabel(), Done = B.newLabel();
    B.iconst(8);
    B.emit(Opcode::NewArray);
    B.istore(0);
    B.iconst(0);
    B.istore(1);
    B.bind(Loop);
    B.iload(1);
    B.iconst(60000);
    B.branch(Opcode::IfIcmpGe, Done);
    B.iload(0);
    B.iconst(0);
    B.iconst(1);
    B.emit(Opcode::Iastore); // a[0] = 1: dead
    B.iload(0);
    B.iconst(0);
    B.iload(1);
    B.emit(Opcode::Iastore); // a[0] = i: the overwrite
    B.iload(0);
    B.iconst(1);
    B.emit(Opcode::Iaload); // a[1]: never established
    B.emit(Opcode::Iprint);
    B.iinc(1, 1);
    B.branch(Opcode::Goto, Loop);
    B.bind(Done);
    B.iload(0);
    B.iconst(0);
    B.emit(Opcode::Iaload);
    B.emit(Opcode::Iprint);
    B.halt();
    B.finish();
  }
  Asm.setEntry(Main);
  return Asm.build();
}

/// Hot loop printing a foldable constant expression each iteration: the
/// wrong-constant mutation's site.
Module foldedPrintLoop() {
  Assembler Asm;
  uint32_t Main = Asm.declareMethod("main", 0, 1, false);
  {
    MethodBuilder B = Asm.beginMethod(Main);
    Label Loop = B.newLabel(), Done = B.newLabel();
    B.iconst(0);
    B.istore(0);
    B.bind(Loop);
    B.iload(0);
    B.iconst(20000);
    B.branch(Opcode::IfIcmpGe, Done);
    B.iconst(6);
    B.iconst(7);
    B.emit(Opcode::Imul);
    B.emit(Opcode::Iprint);
    B.iinc(0, 1);
    B.branch(Opcode::Goto, Loop);
    B.bind(Done);
    B.halt();
    B.finish();
  }
  Asm.setEntry(Main);
  return Asm.build();
}

/// Whether mutation \p P may surface as rejection reason \p R. The exact
/// reason depends on where the first exit after the corruption sits, but
/// each class has a small closed set of ways it can surface. A dropped
/// guard in a trace spanning two loop iterations surfaces as
/// guard-operand-mismatch: the cursor lands on the *next* iteration's
/// identical check over different values.
bool expectedReason(UnsoundPass P, Reason R) {
  switch (P) {
  case UnsoundPass::DropGuard:
    return R == Reason::GuardDropped || R == Reason::GuardOperandMismatch;
  case UnsoundPass::ReorderStorePastExit:
    return R == Reason::SideExitLocalMismatch;
  case UnsoundPass::KillLiveOnExit:
    return R == Reason::SideExitLocalMismatch ||
           R == Reason::FinalLocalMismatch;
  case UnsoundPass::WrongConstant:
    return R == Reason::EffectMismatch || R == Reason::FinalLocalMismatch ||
           R == Reason::SideExitLocalMismatch ||
           R == Reason::SideExitStackMismatch ||
           R == Reason::FinalStackMismatch;
  case UnsoundPass::ResurrectDeadStore:
    return R == Reason::MemStoreUnjustified;
  case UnsoundPass::AliasConfusedLoad:
    // The fabricated value usually surfaces as the missing load itself;
    // when it feeds a store or effect first, the divergence can be
    // typed at that consumer instead.
    return R == Reason::MemLoadUnjustified ||
           R == Reason::MemStoreUnjustified || R == Reason::EffectMismatch ||
           R == Reason::FinalLocalMismatch ||
           R == Reason::SideExitLocalMismatch;
  case UnsoundPass::None:
    break;
  }
  return false;
}

/// Programs chosen so every mutation has a site to fire on: the plain hot
/// loops only exercise guard drops (their stores hold computed values,
/// which the optimizer never defers); the store-before-exit and
/// folded-print loops feed the flush and fold corruptions.
std::vector<Module> mutationPrograms() {
  std::vector<Module> Programs;
  Programs.push_back(testprog::hotLoop(100000));
  Programs.push_back(testprog::countingLoop(100000));
  Programs.push_back(storeBeforeExitLoop());
  Programs.push_back(foldedPrintLoop());
  Programs.push_back(arrayCellLoop());
  return Programs;
}

} // namespace

TEST(ValidatorTraceTest, EveryMutationClassIsCaughtOnRealTraces) {
  std::vector<Module> Programs = mutationPrograms();

  for (UnsoundPass P : AllMutations) {
    unsigned Rejected = 0;
    for (const Module &M : Programs) {
      PreparedModule PM(M);
      analysis::ModuleAnalysis Facts = analysis::ModuleAnalysis::compute(M);
      TraceVM VM(PM);
      VM.run();
      for (Reason R : reasonsUnder(PM, VM, mutated(P), &Facts)) {
        EXPECT_TRUE(expectedReason(P, R))
            << unsoundPassName(P) << " surfaced as " << reasonName(R);
        ++Rejected;
      }
    }
    EXPECT_GT(Rejected, 0u)
        << unsoundPassName(P) << " must reject at least one real trace";
  }
}

TEST(ValidatorTraceTest, StockOptimizerValidatesCleanOnAllWorkloads) {
  for (const WorkloadInfo &W : allWorkloads()) {
    Module M = W.Build(std::max(1u, W.DefaultScale / 100));
    PreparedModule PM(M);
    analysis::ModuleAnalysis Facts = analysis::ModuleAnalysis::compute(M);
    TraceVM VM(PM);
    VM.run();
    unsigned Checked = 0;
    for (const Trace &T : VM.traceCache().traces()) {
      if (!T.Alive)
        continue;
      Result R = validateTrace(PM, T, OptConfig(), &Facts);
      EXPECT_TRUE(R.Ok) << W.Name << ": trace " << T.Id << " segment "
                        << R.SegmentIndex << ": " << reasonName(R.Why) << ": "
                        << R.Detail;
      ++Checked;
    }
    EXPECT_GT(Checked, 0u) << W.Name;
  }
}

//===----------------------------------------------------------------------===//
// Validation at JIT promotion: stats, telemetry, fallback, strict mode
//===----------------------------------------------------------------------===//

namespace {

/// The rejections by reason of \p VM's native tier.
const std::map<uint32_t, uint64_t> &rejectsByReason(const TraceVM &VM) {
  static const std::map<uint32_t, uint64_t> None;
  const backend::BackendStats *BS = VM.backendStats();
  return BS ? BS->RejectsByReason : None;
}

} // namespace

TEST(ValidatorHookTest, StockRunValidatesAndAcceptsEveryTrace) {
  if (!backend::jitSupportedHost())
    GTEST_SKIP() << "no template-JIT support on this host";
  Module M = testprog::hotLoop(100000);
  PreparedModule PM(M);
  TraceVM VM(PM, promoteAll()); // validation defaults to On
  VM.run();
  VmStats S = VM.stats();
  EXPECT_GT(S.TracesValidated, 0u);
  EXPECT_EQ(S.TracesValidated, S.TracesJitCompiled);
  EXPECT_EQ(S.TraceValidationRejects, 0u);
  EXPECT_TRUE(rejectsByReason(VM).empty());
}

TEST(ValidatorHookTest, ValidateOffLeavesTracesUnchecked) {
  if (!backend::jitSupportedHost())
    GTEST_SKIP() << "no template-JIT support on this host";
  Module M = testprog::hotLoop(100000);
  PreparedModule PM(M);
  TraceVM VM(PM, promoteAll().validate(ValidateMode::Off));
  VM.run();
  EXPECT_GT(VM.stats().TracesJitCompiled, 0u);
  EXPECT_EQ(VM.stats().TracesValidated, 0u);
  EXPECT_FALSE(PM.proofs().findVerdict(
      {VM.traceCache().traces().front().Blocks,
       VM.options().optConfig().fingerprint()}));
}

TEST(ValidatorHookTest, RejectedTracesFallBackWithoutChangingBehaviour) {
  if (!backend::jitSupportedHost())
    GTEST_SKIP() << "no template-JIT support on this host";
  Module M = testprog::hotLoop(100000);
  PreparedModule PM(M);
  TraceVM Stock(PM, promoteAll());
  Stock.run();
  TraceVM Mutant(PM, promoteAll().optConfig(mutated(UnsoundPass::DropGuard)));
  Mutant.run();

  VmStats S = Mutant.stats();
  EXPECT_GT(S.TraceValidationRejects, 0u);
  uint64_t ByReason = 0;
  for (const auto &[Code, Count] : rejectsByReason(Mutant)) {
    EXPECT_EQ(static_cast<Reason>(Code), Reason::GuardDropped);
    ByReason += Count;
  }
  EXPECT_EQ(ByReason, S.TraceValidationRejects);

  // Native code always runs the unoptimized block sequence, so even a
  // run whose every trace was rejected compiles them all and behaves
  // identically.
  EXPECT_EQ(S.TracesJitCompiled, Stock.stats().TracesJitCompiled);
  EXPECT_EQ(Mutant.machine().output(), Stock.machine().output());
  EXPECT_EQ(S.digest(), Stock.stats().digest());
}

// The mirroring test reads the event ring, so it needs the
// instrumentation compiled in; the counters it cross-checks against are
// unconditional and covered above.
#ifdef JTC_TELEMETRY
TEST(ValidatorHookTest, VerdictsAreMirroredAsTelemetryEvents) {
  if (!backend::jitSupportedHost())
    GTEST_SKIP() << "no template-JIT support on this host";
  // Keep the run small enough that the ring retains every event.
  Module M = testprog::hotLoop(20000);
  PreparedModule PM(M);
  TraceVM VM(PM, promoteAll()
                     .telemetry(true)
                     .telemetryCapacity(1u << 18)
                     .optConfig(mutated(UnsoundPass::DropGuard)));
  VM.run();
  ASSERT_EQ(VM.events().dropped(), 0u)
      << "ring wrapped; the counts below would be meaningless";
  VmStats S = VM.stats();
  ASSERT_GT(S.TraceValidationRejects, 0u);
  uint64_t Accepted = 0, Rejected = 0;
  for (const Event &E : VM.events().snapshot()) {
    if (E.Kind == EventKind::TraceValidated)
      ++Accepted;
    else if (E.Kind == EventKind::TraceValidationRejected)
      ++Rejected;
  }
  EXPECT_EQ(Accepted, S.TracesValidated - S.TraceValidationRejects);
  EXPECT_EQ(Rejected, S.TraceValidationRejects);
}
#endif // JTC_TELEMETRY

#if GTEST_HAS_DEATH_TEST
TEST(ValidatorHookTest, StrictModeAbortsOnRejection) {
  if (!backend::jitSupportedHost())
    GTEST_SKIP() << "no template-JIT support on this host";
  Module M = testprog::hotLoop(100000);
  PreparedModule PM(M);
  EXPECT_DEATH(
      {
        TraceVM VM(PM, promoteAll()
                           .validate(ValidateMode::Strict)
                           .optConfig(mutated(UnsoundPass::DropGuard)));
        VM.run();
      },
      "rejected by translation validation");
}
#endif

TEST(ValidatorHookTest, MutantsAreRejectedAfterASoundSessionFilledTheMemo) {
  if (!backend::jitSupportedHost())
    GTEST_SKIP() << "no template-JIT support on this host";
  // The module's proof memo is keyed by the optimizer configuration too:
  // verdicts a sound session left behind never answer for a mutated
  // optimizer, whose sessions prove the same shapes again and reject them
  // with a typed reason.
  std::vector<Module> Programs = mutationPrograms();
  std::map<UnsoundPass, uint64_t> Rejected;
  for (const Module &M : Programs) {
    PreparedModule PM(M);
    TraceVM Sound(PM, promoteAll());
    Sound.run();
    ASSERT_GT(PM.proofs().shapesHeld(), 0u);
    for (UnsoundPass P : AllMutations) {
      uint64_t Computed = PM.proofs().proofsComputed();
      TraceVM Mutant(PM, promoteAll().optConfig(mutated(P)));
      Mutant.run();
      EXPECT_GT(PM.proofs().proofsComputed(), Computed)
          << unsoundPassName(P) << " was answered by stock verdicts";
      for (const auto &[Code, Count] : rejectsByReason(Mutant))
        EXPECT_TRUE(expectedReason(P, static_cast<Reason>(Code)))
            << unsoundPassName(P) << " surfaced as "
            << reasonName(static_cast<Reason>(Code));
      Rejected[P] += Mutant.stats().TraceValidationRejects;
    }
  }
  for (UnsoundPass P : AllMutations)
    EXPECT_GT(Rejected[P], 0u)
        << unsoundPassName(P) << " must reject at least one real trace";
}

TEST(ValidatorHookTest, OptConfigFingerprintCoversEveryField) {
  std::set<uint64_t> Seen = {OptConfig().fingerprint()};
  for (bool OptConfig::*Pass :
       {&OptConfig::FoldConstants, &OptConfig::ForwardLoads,
        &OptConfig::DeferStores, &OptConfig::EliminateGuards,
        &OptConfig::LivenessAtExits, &OptConfig::ElimRedundantLoads,
        &OptConfig::ElimDeadStores, &OptConfig::SinkStores}) {
    OptConfig Cfg;
    Cfg.*Pass = false;
    EXPECT_TRUE(Seen.insert(Cfg.fingerprint()).second);
  }
  for (UnsoundPass P : AllMutations)
    EXPECT_TRUE(Seen.insert(mutated(P).fingerprint()).second)
        << unsoundPassName(P);
}

#if GTEST_HAS_DEATH_TEST
TEST(ValidatorHookTest, StrictModeAbortsOnARejectionTheMemoAnswers) {
  if (!backend::jitSupportedHost())
    GTEST_SKIP() << "no template-JIT support on this host";
  Module M = testprog::hotLoop(100000);
  PreparedModule PM(M);
  VmOptions Mutant = promoteAll().optConfig(mutated(UnsoundPass::DropGuard));
  TraceVM Lenient(PM, Mutant);
  Lenient.run();
  ASSERT_GT(Lenient.stats().TraceValidationRejects, 0u);
  // Sessions under this configuration now promote only proved shapes ...
  uint64_t Computed = PM.proofs().proofsComputed();
  TraceVM Again(PM, Mutant);
  Again.run();
  ASSERT_EQ(PM.proofs().proofsComputed(), Computed);
  ASSERT_EQ(Again.stats().TraceValidationRejects,
            Lenient.stats().TraceValidationRejects);
  // ... so a strict one meets its first rejection as a memo hit, and
  // still aborts.
  EXPECT_DEATH(
      {
        TraceVM VM(PM, VmOptions(Mutant).validate(ValidateMode::Strict));
        VM.run();
      },
      "rejected by translation validation: validate/guard-dropped: guard 0 "
      "has no optimized counterpart");
}
#endif

//===----------------------------------------------------------------------===//
// Pinned corpus: accepted and rejected pairs with expected reason codes
//===----------------------------------------------------------------------===//

namespace {

struct CorpusCase {
  std::string File;
  UnsoundPass Mutation = UnsoundPass::None;
  std::string ExpectedReason; ///< "none": every trace must validate.
};

bool parseUnsound(const std::string &Name, UnsoundPass &Out) {
  for (UnsoundPass P :
       {UnsoundPass::None, UnsoundPass::DropGuard,
        UnsoundPass::ReorderStorePastExit, UnsoundPass::WrongConstant,
        UnsoundPass::KillLiveOnExit, UnsoundPass::ResurrectDeadStore,
        UnsoundPass::AliasConfusedLoad}) {
    if (Name == unsoundPassName(P)) {
      Out = P;
      return true;
    }
  }
  return false;
}

/// Reads manifest.txt: one "file mutation expected-reason" triple per
/// line, '#' comments.
std::vector<CorpusCase> readManifest() {
  std::vector<CorpusCase> Cases;
  std::ifstream In(std::string(JTC_VALIDATE_CORPUS_DIR) + "/manifest.txt");
  EXPECT_TRUE(In.good()) << "missing corpus manifest";
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    CorpusCase C;
    std::string Mutation;
    LS >> C.File >> Mutation >> C.ExpectedReason;
    EXPECT_FALSE(C.ExpectedReason.empty()) << "bad manifest line: " << Line;
    EXPECT_TRUE(parseUnsound(Mutation, C.Mutation))
        << "unknown mutation in manifest: " << Mutation;
    Cases.push_back(std::move(C));
  }
  return Cases;
}

} // namespace

TEST(ValidatorCorpusTest, ManifestCoversAcceptanceAndEveryMutationClass) {
  std::vector<CorpusCase> Cases = readManifest();
  ASSERT_GE(Cases.size(), 8u);
  bool SawAccept = false;
  std::set<UnsoundPass> Mutations;
  for (const CorpusCase &C : Cases) {
    SawAccept |= C.Mutation == UnsoundPass::None;
    Mutations.insert(C.Mutation);
  }
  EXPECT_TRUE(SawAccept) << "corpus must pin accepted pairs too";
  EXPECT_EQ(Mutations.size(), 7u)
      << "corpus must pin every mutation class plus acceptance";
}

TEST(ValidatorCorpusTest, EveryPinnedPairReplaysToItsReasonCode) {
  for (const CorpusCase &C : readManifest()) {
    std::string Path = std::string(JTC_VALIDATE_CORPUS_DIR) + "/" + C.File;
    std::string Error;
    std::optional<Module> M = parseModuleFile(Path, Error);
    ASSERT_TRUE(M.has_value()) << Path << ": " << Error;

    PreparedModule PM(*M);
    analysis::ModuleAnalysis Facts = analysis::ModuleAnalysis::compute(*M);
    TraceVM VM(PM);
    VM.run();
    ASSERT_GT(VM.stats().TracesConstructed, 0u)
        << Path << ": fixture builds no traces";
    EXPECT_TRUE(reasonsUnder(PM, VM, OptConfig(), &Facts).empty())
        << Path << ": fixtures must be clean under the stock optimizer";

    std::vector<Reason> Reasons =
        reasonsUnder(PM, VM, mutated(C.Mutation), &Facts);
    if (C.Mutation == UnsoundPass::None) {
      EXPECT_TRUE(Reasons.empty()) << Path;
      continue;
    }
    EXPECT_FALSE(Reasons.empty())
        << Path << ": " << unsoundPassName(C.Mutation) << " must reject";
    for (Reason R : Reasons)
      EXPECT_EQ(reasonName(R), C.ExpectedReason)
          << Path << " under " << unsoundPassName(C.Mutation);
  }
}
