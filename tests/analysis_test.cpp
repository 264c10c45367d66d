//===- tests/analysis_test.cpp - Static dataflow analysis ------------------===//
///
/// Coverage for src/analysis: value analysis at merge points, loops,
/// switches and virtual calls; backward liveness (including the
/// worklist-seeding regression); the lint pass; effect summaries; the
/// typed verifier's rejection classes; and the dynamic-refines-static
/// property cross-checking facts against real interpreter executions.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "analysis/TraceProofs.h"

#include "bytecode/Verifier.h"
#include "fuzz/ProgramGen.h"
#include "fuzz/Refinement.h"
#include "workloads/Workloads.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace jtc;
using analysis::AbstractValue;
using analysis::MethodAnalysis;
using analysis::ModuleAnalysis;

namespace {

bool hasErrorContaining(const Module &M, const std::string &Needle) {
  for (const VerifyError &E : verifyModule(M))
    if (E.Message.find(Needle) != std::string::npos)
      return true;
  return false;
}

/// First pc of \p Op in method 0 of \p M; asserts it exists.
uint32_t pcOf(const Module &M, uint32_t MethodId, Opcode Op) {
  const std::vector<Instruction> &Code = M.Methods[MethodId].Code;
  for (uint32_t Pc = 0; Pc < Code.size(); ++Pc)
    if (Code[Pc].Op == Op)
      return Pc;
  ADD_FAILURE() << "opcode not found in method " << MethodId;
  return 0;
}

/// One-method module: condition (an opaque value) selects between
/// storing \p A or \p B to local 0, then control merges and prints it.
Module mergeOfConstants(int64_t A, int64_t B) {
  Assembler Asm;
  uint32_t C = Asm.declareClass("C", 1);
  uint32_t Main = Asm.declareMethod("main", 0, 2, false);
  MethodBuilder Bld = Asm.beginMethod(Main);
  Label Else = Bld.newLabel(), Join = Bld.newLabel();
  // Opaque condition: a freshly allocated object's zeroed field is 0,
  // but a heap load is Top to the analysis.
  Bld.newobj(C);
  Bld.istore(1);
  Bld.iload(1);
  Bld.getfield(0);
  Bld.branch(Opcode::IfEq, Else);
  Bld.iconst(A);
  Bld.istore(0);
  Bld.branch(Opcode::Goto, Join);
  Bld.bind(Else);
  Bld.iconst(B);
  Bld.istore(0);
  Bld.bind(Join);
  Bld.iload(0);
  Bld.emit(Opcode::Iprint);
  Bld.halt();
  Bld.finish();
  Asm.setEntry(Main);
  return Asm.build();
}

} // namespace

//===----------------------------------------------------------------------===//
// Value analysis: merges, loops, switches, virtual calls
//===----------------------------------------------------------------------===//

TEST(ValueAnalysisTest, MergeJoinsConstantsIntoRange) {
  Module M = mergeOfConstants(3, 5);
  ASSERT_TRUE(isValid(M));
  ModuleAnalysis A = ModuleAnalysis::compute(M);
  const MethodAnalysis *MA = A.method(M.EntryMethod);
  ASSERT_NE(MA, nullptr);
  analysis::FrameState S = MA->Values.stateBefore(
      pcOf(M, M.EntryMethod, Opcode::Iprint));
  ASSERT_TRUE(S.Reachable);
  ASSERT_EQ(S.Stack.size(), 1u);
  EXPECT_TRUE(S.Stack[0].isInt());
  EXPECT_EQ(S.Stack[0].Lo, 3);
  EXPECT_EQ(S.Stack[0].Hi, 5);
}

TEST(ValueAnalysisTest, MergeOfEqualConstantsStaysConstant) {
  Module M = mergeOfConstants(7, 7);
  ModuleAnalysis A = ModuleAnalysis::compute(M);
  analysis::FrameState S = A.method(M.EntryMethod)
                               ->Values.stateBefore(
                                   pcOf(M, M.EntryMethod, Opcode::Iprint));
  ASSERT_TRUE(S.Reachable);
  ASSERT_EQ(S.Stack.size(), 1u);
  EXPECT_TRUE(S.Stack[0].isConst());
  EXPECT_EQ(S.Stack[0].Lo, 7);
}

TEST(ValueAnalysisTest, LoopCounterStaysIntegerAtHeader) {
  Module M = testprog::countingLoop(10);
  ModuleAnalysis A = ModuleAnalysis::compute(M);
  const MethodAnalysis *MA = A.method(M.EntryMethod);
  // At the backward branch's target (the loop header), i has been joined
  // from {0} and the widened loop-carried value. Widening gives up the
  // bounds (the increment can overflow), but must preserve the *type*:
  // an Int that never decays to Top or Conflict through the loop join.
  uint32_t Header = static_cast<uint32_t>(
      M.Methods[M.EntryMethod].Code[pcOf(M, M.EntryMethod, Opcode::Goto)].A);
  analysis::FrameState S = MA->Values.stateBefore(Header);
  ASSERT_TRUE(S.Reachable);
  EXPECT_TRUE(S.Locals[0].isInt());
  // The loop's exit condition depends on the widened counter, so neither
  // edge may be pruned: the back branch must stay a real decision.
  uint32_t BranchPc = 0;
  const std::vector<Instruction> &Code = M.Methods[M.EntryMethod].Code;
  for (uint32_t Pc = 0; Pc < Code.size(); ++Pc)
    if (Code[Pc].Op == Opcode::IfIcmpLt || Code[Pc].Op == Opcode::IfIcmpGe ||
        Code[Pc].Op == Opcode::IfIcmpLe || Code[Pc].Op == Opcode::IfIcmpGt)
      BranchPc = Pc;
  EXPECT_EQ(MA->Values.decisionAt(BranchPc),
            analysis::BranchDecision::Unknown);
}

TEST(ValueAnalysisTest, ConstantSwitchSelectorPrunesOtherArms) {
  Assembler Asm;
  uint32_t Main = Asm.declareMethod("main", 0, 1, false);
  MethodBuilder B = Asm.beginMethod(Main);
  Label C0 = B.newLabel(), C1 = B.newLabel(), Def = B.newLabel(),
        End = B.newLabel();
  B.iconst(1);
  B.tableswitch(0, {C0, C1}, Def);
  B.bind(C0);
  B.iconst(100);
  B.istore(0);
  B.branch(Opcode::Goto, End);
  B.bind(C1);
  B.iconst(101);
  B.istore(0);
  B.branch(Opcode::Goto, End);
  B.bind(Def);
  B.iconst(102);
  B.istore(0);
  B.bind(End);
  B.iload(0);
  B.emit(Opcode::Iprint);
  B.halt();
  B.finish();
  Asm.setEntry(Main);
  Module M = Asm.build();
  ASSERT_TRUE(isValid(M));

  ModuleAnalysis A = ModuleAnalysis::compute(M);
  const MethodAnalysis *MA = A.method(M.EntryMethod);
  uint32_t SwitchPc = pcOf(M, M.EntryMethod, Opcode::Tableswitch);
  EXPECT_EQ(MA->Values.decisionAt(SwitchPc),
            analysis::BranchDecision::AlwaysTaken);
  // Only the selected case is reachable; at the print, the merged value
  // is exactly its constant.
  analysis::FrameState S = MA->Values.stateBefore(
      pcOf(M, M.EntryMethod, Opcode::Iprint));
  ASSERT_TRUE(S.Reachable);
  EXPECT_TRUE(S.Stack[0].isConst());
  EXPECT_EQ(S.Stack[0].Lo, 101);
}

TEST(ValueAnalysisTest, VirtualReceiverCarriesClassMaySet) {
  Module M = testprog::virtualDispatch();
  ModuleAnalysis A = ModuleAnalysis::compute(M);
  const MethodAnalysis *MA = A.method(M.EntryMethod);
  uint32_t CallPc = pcOf(M, M.EntryMethod, Opcode::InvokeVirtual);
  analysis::FrameState S = MA->Values.stateBefore(CallPc);
  ASSERT_TRUE(S.Reachable);
  ASSERT_FALSE(S.Stack.empty());
  const AbstractValue &Recv = S.Stack.back();
  ASSERT_TRUE(Recv.isRef());
  EXPECT_TRUE(Recv.isNonNullRef());
  // First call site: the receiver is exactly class A (id 0), not B.
  EXPECT_TRUE(Recv.Classes.mayContain(0));
  EXPECT_FALSE(Recv.Classes.mayContain(1));
}

//===----------------------------------------------------------------------===//
// Liveness
//===----------------------------------------------------------------------===//

TEST(LivenessTest, SeesUsesAcrossNestedLoops) {
  // Regression: the backward solver used to seed its worklist with exit
  // blocks only. This method's lone exit is a bare `halt` whose live-in
  // set is empty, so the first join into its predecessors changed
  // nothing and no other block was ever processed -- every cross-block
  // use was invisible and all stores looked dead.
  Assembler Asm;
  uint32_t Main = Asm.declareMethod("main", 0, 3, false);
  MethodBuilder B = Asm.beginMethod(Main);
  Label Outer = B.newLabel(), OuterEnd = B.newLabel();
  Label Inner = B.newLabel(), InnerEnd = B.newLabel();
  B.iconst(12345);
  B.istore(0); // seed: read only inside the inner loop
  B.iconst(0);
  B.istore(1); // j
  B.bind(Outer);
  B.iload(1);
  B.iconst(4);
  B.branch(Opcode::IfIcmpGe, OuterEnd);
  B.iconst(0);
  B.istore(2); // i
  B.bind(Inner);
  B.iload(2);
  B.iconst(8);
  B.branch(Opcode::IfIcmpGe, InnerEnd);
  B.iload(0);
  B.iconst(1);
  B.emit(Opcode::Iadd);
  B.istore(0);
  B.iinc(2, 1);
  B.branch(Opcode::Goto, Inner);
  B.bind(InnerEnd);
  B.iinc(1, 1);
  B.branch(Opcode::Goto, Outer);
  B.bind(OuterEnd);
  B.halt();
  B.finish();
  Asm.setEntry(Main);
  Module M = Asm.build();
  ASSERT_TRUE(isValid(M));

  ModuleAnalysis A = ModuleAnalysis::compute(M);
  const MethodAnalysis *MA = A.method(M.EntryMethod);
  // The seed store at pc 1 is live (read at the inner loop's iload), and
  // both loop counters are live after their increments.
  EXPECT_TRUE(MA->Liveness.isLiveIn(2, 0));
  for (const analysis::LintFinding &F :
       analysis::lintMethod(MA->Values, MA->Liveness))
    EXPECT_NE(F.K, analysis::LintFinding::Kind::DeadStore) << F.Message;
}

TEST(LivenessTest, OverwrittenStoreIsDead) {
  Assembler Asm;
  uint32_t Main = Asm.declareMethod("main", 0, 1, false);
  MethodBuilder B = Asm.beginMethod(Main);
  B.iconst(1);
  B.istore(0); // dead: overwritten below without a read
  B.iconst(2);
  B.istore(0);
  B.iload(0);
  B.emit(Opcode::Iprint);
  B.halt();
  B.finish();
  Asm.setEntry(Main);
  Module M = Asm.build();

  ModuleAnalysis A = ModuleAnalysis::compute(M);
  const MethodAnalysis *MA = A.method(M.EntryMethod);
  EXPECT_FALSE(MA->Liveness.isLiveIn(2, 0));
  EXPECT_TRUE(MA->Liveness.isLiveIn(4, 0));

  bool SawDeadStore = false;
  for (const analysis::LintFinding &F :
       analysis::lintMethod(MA->Values, MA->Liveness))
    if (F.K == analysis::LintFinding::Kind::DeadStore && F.Pc == 1)
      SawDeadStore = true;
  EXPECT_TRUE(SawDeadStore);
}

TEST(LivenessTest, PastEndOfCodeIsEmpty) {
  Module M = testprog::countingLoop(3);
  ModuleAnalysis A = ModuleAnalysis::compute(M);
  const analysis::LocalSet &Live = A.method(M.EntryMethod)
                                       ->Liveness.liveIn(static_cast<uint32_t>(
                                           M.Methods[M.EntryMethod].Code.size()));
  EXPECT_EQ(Live.count(), 0u);
}

TEST(LivenessTest, MoreThan64LocalsUseOverflowWords) {
  // Locals 0-63 live inline in a LocalSet; 100 and 129 need the overflow
  // words. Locals: 3 and 100 are read, 129 is stored and never read.
  Assembler Asm;
  uint32_t Main = Asm.declareMethod("main", 0, 130, false);
  MethodBuilder B = Asm.beginMethod(Main);
  B.iconst(1);
  B.istore(100);
  B.iconst(2);
  B.istore(3);
  B.iload(100); // pc 4
  B.iload(3);
  B.emit(Opcode::Iadd);
  B.istore(129);
  B.halt();
  B.finish();
  Asm.setEntry(Main);
  Module M = Asm.build();
  ASSERT_TRUE(isValid(M));

  ModuleAnalysis A = ModuleAnalysis::compute(M);
  const analysis::LivenessFacts &L = A.method(Main)->Liveness;
  EXPECT_EQ(L.liveIn(0).count(), 0u);
  EXPECT_TRUE(L.isLiveIn(2, 100));
  EXPECT_FALSE(L.isLiveIn(2, 3));
  EXPECT_TRUE(L.isLiveIn(4, 100));
  EXPECT_TRUE(L.isLiveIn(4, 3));
  EXPECT_EQ(L.liveIn(4).count(), 2u);
  EXPECT_FALSE(L.isLiveIn(7, 129));

  analysis::LocalSet S(130), T(130);
  S.set(5);
  S.set(129);
  EXPECT_TRUE(S.test(129));
  EXPECT_FALSE(S.test(128));
  EXPECT_FALSE(S.test(64));
  EXPECT_FALSE(S.test(1000)); // beyond the words is simply absent
  T.set(64);
  T.set(5);
  EXPECT_TRUE(S.unionWith(T));
  EXPECT_FALSE(S.unionWith(T));
  EXPECT_EQ(S.count(), 3u);
  EXPECT_TRUE(S.test(64));
  S.clear(129);
  S.clear(5);
  analysis::LocalSet Only64(130);
  Only64.set(64);
  EXPECT_EQ(S, Only64);
}

//===----------------------------------------------------------------------===//
// Lints
//===----------------------------------------------------------------------===//

TEST(LintTest, FlagsDeadBranchAndUnreachableArm) {
  Assembler Asm;
  uint32_t Main = Asm.declareMethod("main", 0, 1, false);
  MethodBuilder B = Asm.beginMethod(Main);
  Label Taken = B.newLabel();
  B.iconst(1);
  B.branch(Opcode::IfNe, Taken); // always taken
  B.iconst(0);                   // unreachable arm
  B.emit(Opcode::Iprint);
  B.bind(Taken);
  B.halt();
  B.finish();
  Asm.setEntry(Main);
  Module M = Asm.build();
  ASSERT_TRUE(isValid(M));

  ModuleAnalysis A = ModuleAnalysis::compute(M);
  const MethodAnalysis *MA = A.method(M.EntryMethod);
  bool SawDeadBranch = false, SawUnreachable = false;
  for (const analysis::LintFinding &F :
       analysis::lintMethod(MA->Values, MA->Liveness)) {
    SawDeadBranch |= F.K == analysis::LintFinding::Kind::DeadBranch;
    SawUnreachable |= F.K == analysis::LintFinding::Kind::UnreachableBlock;
  }
  EXPECT_TRUE(SawDeadBranch);
  EXPECT_TRUE(SawUnreachable);
}

TEST(LintTest, FlagsUnusedLocalAndStackNeutralLoop) {
  Assembler Asm;
  uint32_t Main = Asm.declareMethod("main", 0, 2, false);
  MethodBuilder B = Asm.beginMethod(Main);
  Label Spin = B.newLabel();
  B.iconst(9);
  B.istore(0); // written, never read
  B.bind(Spin);
  B.branch(Opcode::Goto, Spin); // effect-free self loop
  B.finish();
  Asm.setEntry(Main);
  Module M = Asm.build();
  ASSERT_TRUE(isValid(M));

  ModuleAnalysis A = ModuleAnalysis::compute(M);
  const MethodAnalysis *MA = A.method(M.EntryMethod);
  bool SawUnused = false, SawNeutralLoop = false;
  for (const analysis::LintFinding &F :
       analysis::lintMethod(MA->Values, MA->Liveness)) {
    SawUnused |= F.K == analysis::LintFinding::Kind::UnusedLocal;
    SawNeutralLoop |= F.K == analysis::LintFinding::Kind::StackNeutralLoop;
  }
  EXPECT_TRUE(SawUnused);
  EXPECT_TRUE(SawNeutralLoop);
}

//===----------------------------------------------------------------------===//
// Effect summaries
//===----------------------------------------------------------------------===//

TEST(SummariesTest, ClassifiesPureAndEffectfulMethods) {
  Assembler Asm;
  uint32_t Pure = Asm.declareMethod("double", 1, 1, true);
  {
    MethodBuilder B = Asm.beginMethod(Pure);
    B.iload(0);
    B.iconst(2);
    B.emit(Opcode::Imul);
    B.iret();
    B.finish();
  }
  uint32_t Main = Asm.declareMethod("main", 0, 1, false);
  {
    MethodBuilder B = Asm.beginMethod(Main);
    B.iconst(21);
    B.invokestatic(Pure);
    B.emit(Opcode::Iprint);
    B.halt();
    B.finish();
  }
  Asm.setEntry(Main);
  Module M = Asm.build();
  ASSERT_TRUE(isValid(M));

  ModuleAnalysis A = ModuleAnalysis::compute(M);
  EXPECT_TRUE(A.summaries().method(Pure).pure());
  const analysis::EffectSummary &MainSum = A.summaries().method(Main);
  EXPECT_TRUE(MainSum.Prints);
  EXPECT_TRUE(MainSum.MayHalt);
  EXPECT_FALSE(MainSum.WritesHeap);
}

TEST(SummariesTest, RecursionIsMayTrap) {
  Module M = testprog::recursiveFactorial(5);
  ModuleAnalysis A = ModuleAnalysis::compute(M);
  uint32_t Fact = 0; // declared first in the fixture
  EXPECT_TRUE(A.summaries().isRecursive(Fact));
  EXPECT_TRUE(A.summaries().method(Fact).MayTrap);
}

TEST(SummariesTest, HeapTrafficPropagatesToCallers) {
  Module M = testprog::arraySquares(4);
  ModuleAnalysis A = ModuleAnalysis::compute(M);
  const analysis::EffectSummary &S = A.summaries().method(M.EntryMethod);
  EXPECT_TRUE(S.Allocates);
  EXPECT_TRUE(S.WritesHeap);
  EXPECT_TRUE(S.ReadsHeap);
}

/// Regression for the per-trace-op query: a call instruction's facts are
/// those of its possible targets, not of the enclosing method. The static
/// call resolves to its one pure callee even though main itself prints
/// and halts; the virtual call merges every implementation of the slot
/// and is may-trap by dispatch alone.
TEST(SummariesTest, CallSiteQueryResolvesPerTraceOpDispatch) {
  Assembler Asm;
  uint32_t Slot = Asm.declareSlot("act", 1, true);
  uint32_t CA = Asm.declareClass("A", 1);
  uint32_t CB = Asm.declareClass("B", 1);
  uint32_t Reader = Asm.declareMethod("A.act", 1, 1, true);
  {
    MethodBuilder B = Asm.beginMethod(Reader);
    B.iload(0);
    B.getfield(0);
    B.iret();
    B.finish();
  }
  uint32_t Writer = Asm.declareMethod("B.act", 1, 1, true);
  {
    MethodBuilder B = Asm.beginMethod(Writer);
    B.iload(0);
    B.iconst(5);
    B.putfield(0);
    B.iconst(0);
    B.iret();
    B.finish();
  }
  Asm.setVtableEntry(CA, Slot, Reader);
  Asm.setVtableEntry(CB, Slot, Writer);
  uint32_t Pure = Asm.declareMethod("pure", 1, 1, true);
  {
    MethodBuilder B = Asm.beginMethod(Pure);
    B.iload(0);
    B.iconst(2);
    B.emit(Opcode::Imul);
    B.iret();
    B.finish();
  }
  uint32_t Main = Asm.declareMethod("main", 0, 1, false);
  {
    MethodBuilder B = Asm.beginMethod(Main);
    B.iconst(21);
    B.invokestatic(Pure);
    B.emit(Opcode::Iprint);
    B.newobj(CA);
    B.invokevirtual(Slot);
    B.emit(Opcode::Iprint);
    B.halt();
    B.finish();
  }
  Asm.setEntry(Main);
  Module M = Asm.build();
  ASSERT_TRUE(isValid(M));

  const analysis::ModuleSummaries S = analysis::ModuleSummaries::compute(M);
  const std::vector<Instruction> &Code = M.Methods[Main].Code;

  auto Static = S.callSite(M, Code[pcOf(M, Main, Opcode::InvokeStatic)]);
  ASSERT_TRUE(Static.has_value());
  EXPECT_TRUE(Static->pure()); // Callee facts, not main's print/halt.

  auto Virtual = S.callSite(M, Code[pcOf(M, Main, Opcode::InvokeVirtual)]);
  ASSERT_TRUE(Virtual.has_value());
  EXPECT_TRUE(Virtual->MayTrap); // Dispatch can fail on its own.
  EXPECT_TRUE(Virtual->ReadsHeap);  // From A.act.
  EXPECT_TRUE(Virtual->WritesHeap); // From B.act.
  EXPECT_FALSE(Virtual->Prints);

  // Non-call trace ops and unimplemented slots have no call-site facts.
  EXPECT_FALSE(S.callSite(M, Instruction(Opcode::Iadd)).has_value());
  EXPECT_FALSE(
      S.callSite(M, Instruction(Opcode::InvokeVirtual, 99)).has_value());
}

//===----------------------------------------------------------------------===//
// Alias & escape analysis
//===----------------------------------------------------------------------===//

TEST(AliasTest, EscapeLatticeClassifiesAllocationSites) {
  Assembler Asm;
  uint32_t C = Asm.declareClass("C", 1);
  uint32_t Pure = Asm.declareMethod("pure", 1, 1, true);
  {
    MethodBuilder B = Asm.beginMethod(Pure);
    B.iconst(7);
    B.iret();
    B.finish();
  }
  uint32_t Writer = Asm.declareMethod("writer", 1, 1, true);
  {
    MethodBuilder B = Asm.beginMethod(Writer);
    B.iload(0);
    B.iconst(5);
    B.putfield(0);
    B.iconst(0);
    B.iret();
    B.finish();
  }
  uint32_t Main = Asm.declareMethod("main", 0, 1, false);
  {
    MethodBuilder B = Asm.beginMethod(Main);
    // Site 0: read locally, never leaves the frame.
    B.newobj(C);
    B.istore(0);
    B.iload(0);
    B.getfield(0);
    B.emit(Opcode::Iprint);
    // Site 1: passed to a heap-free callee.
    B.newobj(C);
    B.invokestatic(Pure);
    B.emit(Opcode::Iprint);
    // Site 2: passed to a callee that may write the heap.
    B.newobj(C);
    B.invokestatic(Writer);
    B.emit(Opcode::Iprint);
    B.halt();
    B.finish();
  }
  Asm.setEntry(Main);
  Module M = Asm.build();
  ASSERT_TRUE(isValid(M));

  ModuleAnalysis A = ModuleAnalysis::compute(M);
  const MethodAnalysis *MA = A.method(Main);
  ASSERT_NE(MA, nullptr);
  analysis::MethodEscapeFacts F =
      analysis::analyzeMethodEscapes(MA->Cfg, MA->Values, A.summaries());
  ASSERT_EQ(F.Sites.size(), 3u);
  EXPECT_FALSE(F.Overflowed);
  EXPECT_EQ(F.Sites[0].Escape, analysis::EscapeClass::NoEscape);
  EXPECT_EQ(F.Sites[1].Escape, analysis::EscapeClass::ArgEscape);
  EXPECT_EQ(F.Sites[2].Escape, analysis::EscapeClass::GlobalEscape);
}

/// The trace walk proves accesses through a fresh allocation: array
/// element traffic keeps only the bounds check (NullOnly), while length
/// reads and known-class field traffic shed every check (Full).
TEST(AliasTest, TraceMemoryWalkProvesFreshAllocationAccesses) {
  Assembler Asm;
  uint32_t C = Asm.declareClass("C", 1);
  uint32_t Main = Asm.declareMethod("main", 0, 2, false);
  {
    MethodBuilder B = Asm.beginMethod(Main);
    B.iconst(4);
    B.emit(Opcode::NewArray);
    B.istore(0);
    B.iload(0);
    B.iconst(0);
    B.iconst(9);
    B.emit(Opcode::Iastore); // NullOnly: the index is dynamic.
    B.iload(0);
    B.emit(Opcode::ArrayLength); // Full: no bounds check to keep.
    B.emit(Opcode::Iprint);
    B.iload(0);
    B.iconst(0);
    B.emit(Opcode::Iaload); // NullOnly.
    B.emit(Opcode::Iprint);
    B.newobj(C);
    B.istore(1);
    B.iload(1);
    B.iconst(3);
    B.putfield(0); // Full: class known, slot in range.
    B.iload(1);
    B.getfield(0); // Full.
    B.emit(Opcode::Iprint);
    B.halt();
    B.finish();
  }
  Asm.setEntry(Main);
  Module M = Asm.build();
  ASSERT_TRUE(isValid(M));

  ModuleAnalysis A = ModuleAnalysis::compute(M);
  analysis::ValueFactsFn Facts =
      [&](uint32_t F) -> const analysis::MethodValueFacts * {
    return A.method(F) ? &A.method(F)->Values : nullptr;
  };
  std::vector<analysis::TraceBlockSpan> Blocks = {
      {Main, 0, static_cast<uint32_t>(M.Methods[Main].Code.size())}};
  analysis::AliasStats Stats;
  std::vector<analysis::TraceMemFact> Elidable =
      analysis::analyzeTraceMemory(M, Facts, Blocks, &Stats);

  EXPECT_EQ(Stats.MemOps, 5u);
  EXPECT_EQ(Stats.ElidedNull, 2u);
  EXPECT_EQ(Stats.ElidedFull, 3u);
  EXPECT_EQ(Stats.MayNullBase, 0u);
  EXPECT_EQ(Stats.UnknownBase, 0u);
  ASSERT_EQ(Elidable.size(), 5u);
  EXPECT_EQ(Elidable[0].Pc, pcOf(M, Main, Opcode::Iastore));
  EXPECT_EQ(Elidable[0].Elide, ElideLevel::NullOnly);
  EXPECT_EQ(Elidable[1].Pc, pcOf(M, Main, Opcode::ArrayLength));
  EXPECT_EQ(Elidable[1].Elide, ElideLevel::Full);
  EXPECT_EQ(Elidable[3].Pc, pcOf(M, Main, Opcode::PutField));
  EXPECT_EQ(Elidable[3].Elide, ElideLevel::Full);
}

/// The module-wide report aggregates both passes and names the pattern
/// that blocked each unproven access.
TEST(AliasTest, ModuleReportAggregatesStatsAndDiagnostics) {
  Assembler Asm;
  uint32_t C = Asm.declareClass("C", 1);
  uint32_t Opaque = Asm.declareMethod("opaque", 1, 1, true);
  {
    // The argument's shape is unknown to the intra-method analysis, so
    // this access is unsupported and must surface as a diagnostic.
    MethodBuilder B = Asm.beginMethod(Opaque);
    B.iload(0);
    B.getfield(0);
    B.iret();
    B.finish();
  }
  uint32_t Main = Asm.declareMethod("main", 0, 1, false);
  {
    MethodBuilder B = Asm.beginMethod(Main);
    B.newobj(C);
    B.istore(0);
    B.iload(0);
    B.iconst(3);
    B.putfield(0); // Provable: fresh known-class base.
    B.iload(0);
    B.invokestatic(Opaque);
    B.emit(Opcode::Iprint);
    B.halt();
    B.finish();
  }
  Asm.setEntry(Main);
  Module M = Asm.build();
  ASSERT_TRUE(isValid(M));

  ModuleAnalysis A = ModuleAnalysis::compute(M);
  analysis::ValueFactsFn Facts =
      [&](uint32_t F) -> const analysis::MethodValueFacts * {
    return A.method(F) ? &A.method(F)->Values : nullptr;
  };
  analysis::ModuleAliasReport R =
      analysis::analyzeModuleAliasing(M, Facts, A.summaries());

  EXPECT_EQ(R.Stats.AllocSites, 1u);
  EXPECT_EQ(R.Stats.MemOps, 2u);
  EXPECT_GE(R.Stats.ElidedFull, 1u); // main's putfield.
  EXPECT_EQ(R.Stats.UnknownBase, 1u); // opaque's getfield.
  ASSERT_EQ(R.Diagnostics.size(), 1u);
  EXPECT_NE(R.Diagnostics[0].find("opaque"), std::string::npos);
  EXPECT_NE(R.Diagnostics[0].find("base shape unknown"), std::string::npos);
  ASSERT_EQ(R.Escapes.size(), M.Methods.size());
  ASSERT_EQ(R.Escapes[Main].Sites.size(), 1u);
  // The object rides into a heap-reading (but heap-free-writing) callee.
  EXPECT_EQ(R.Escapes[Main].Sites[0].Escape, analysis::EscapeClass::ArgEscape);
}

//===----------------------------------------------------------------------===//
// Typed verifier rejection classes
//===----------------------------------------------------------------------===//

TEST(TypedVerifierTest, RejectsRefUsedAsInteger) {
  Assembler Asm;
  Asm.declareClass("C", 1);
  uint32_t Main = Asm.declareMethod("main", 0, 1, false);
  MethodBuilder B = Asm.beginMethod(Main);
  B.newobj(0);
  B.iconst(1);
  B.emit(Opcode::Iadd); // ref + int
  B.emit(Opcode::Iprint);
  B.halt();
  B.finish();
  Asm.setEntry(Main);
  EXPECT_TRUE(hasErrorContaining(Asm.build(), "reference value"));
}

TEST(TypedVerifierTest, RejectsAlwaysNullReceiver) {
  Assembler Asm;
  Asm.declareClass("C", 1);
  uint32_t Main = Asm.declareMethod("main", 0, 1, false);
  MethodBuilder B = Asm.beginMethod(Main);
  B.iconst(0); // null
  B.getfield(0);
  B.emit(Opcode::Iprint);
  B.halt();
  B.finish();
  Asm.setEntry(Main);
  EXPECT_TRUE(hasErrorContaining(Asm.build(), "receiver is always null"));
}

TEST(TypedVerifierTest, RejectsTypeInconsistentMerge) {
  Assembler Asm;
  uint32_t C = Asm.declareClass("C", 1);
  uint32_t Main = Asm.declareMethod("main", 0, 2, false);
  MethodBuilder B = Asm.beginMethod(Main);
  Label Else = B.newLabel(), Join = B.newLabel();
  // Opaque condition via a heap load, so both arms stay feasible.
  B.newobj(C);
  B.istore(1);
  B.iload(1);
  B.getfield(0);
  B.branch(Opcode::IfEq, Else);
  B.newobj(C); // one arm: a reference
  B.istore(0);
  B.branch(Opcode::Goto, Join);
  B.bind(Else);
  B.iconst(7); // other arm: a nonzero integer
  B.istore(0);
  B.bind(Join);
  B.iload(0);
  B.getfield(0); // consuming the conflict is the error
  B.emit(Opcode::Iprint);
  B.halt();
  B.finish();
  Asm.setEntry(Main);
  EXPECT_TRUE(hasErrorContaining(Asm.build(), "type-inconsistent merge"));
}

TEST(TypedVerifierTest, RejectsFalloffOnStaticallyDeadPath) {
  // The never-taken fallthrough still must not run off the end: edge
  // pruning is an analysis refinement, not a license for malformed code.
  Module M;
  Method Main;
  Main.Name = "main";
  Main.NumLocals = 1;
  Main.Code = {Instruction(Opcode::Iconst, 1), Instruction(Opcode::IfNe, 4),
               Instruction(Opcode::Iconst, 5), Instruction(Opcode::Istore, 0),
               Instruction(Opcode::Halt)};
  // Truncate the halt so the dead fallthrough falls off the end.
  Main.Code.pop_back();
  Main.Code[1].A = 3;
  M.Methods.push_back(std::move(Main));
  M.EntryMethod = 0;
  // pc3 (the IfNe target) is now istore; the taken path also ends
  // without a terminator, but the message that matters is the falloff.
  EXPECT_TRUE(hasErrorContaining(M, "fall off the end"));
}

TEST(TypedVerifierTest, RejectsWrongTypedReturns) {
  {
    // Declared ref, returns an integer.
    Assembler Asm;
    uint32_t F = Asm.declareMethod("f", 0, 0, true, TypeTag::Ref);
    {
      MethodBuilder B = Asm.beginMethod(F);
      B.iconst(7);
      B.iret();
      B.finish();
    }
    uint32_t Main = Asm.declareMethod("main", 0, 0, false);
    {
      MethodBuilder B = Asm.beginMethod(Main);
      B.invokestatic(F);
      B.emit(Opcode::Pop);
      B.halt();
      B.finish();
    }
    Asm.setEntry(Main);
    EXPECT_TRUE(hasErrorContaining(Asm.build(), "return type mismatch"));
  }
  {
    // Declared int, returns a reference.
    Assembler Asm;
    uint32_t C = Asm.declareClass("C", 1);
    uint32_t F = Asm.declareMethod("g", 0, 0, true, TypeTag::Int);
    {
      MethodBuilder B = Asm.beginMethod(F);
      B.newobj(C);
      B.iret();
      B.finish();
    }
    uint32_t Main = Asm.declareMethod("main", 0, 0, false);
    {
      MethodBuilder B = Asm.beginMethod(Main);
      B.invokestatic(F);
      B.emit(Opcode::Pop);
      B.halt();
      B.finish();
    }
    Asm.setEntry(Main);
    EXPECT_TRUE(
        hasErrorContaining(Asm.build(), "return type mismatch: returns"));
  }
}

TEST(TypedVerifierTest, StillAcceptsEveryHandBuiltProgram) {
  EXPECT_TRUE(isValid(testprog::countingLoop(10)));
  EXPECT_TRUE(isValid(testprog::recursiveFactorial(5)));
  EXPECT_TRUE(isValid(testprog::virtualDispatch()));
  EXPECT_TRUE(isValid(testprog::switchProgram()));
  EXPECT_TRUE(isValid(testprog::arraySquares(8)));
  EXPECT_TRUE(isValid(testprog::divideByZero()));
}

TEST(TypedVerifierTest, AcceptsAllWorkloadsWithZeroLintFindings) {
  for (const WorkloadInfo &W : allWorkloads()) {
    Module M = W.Build(W.DefaultScale);
    EXPECT_TRUE(verifyModule(M).empty()) << W.Name;
    ModuleAnalysis A = ModuleAnalysis::compute(M);
    size_t Findings = 0;
    for (uint32_t F = 0; F < A.numMethods(); ++F)
      if (const MethodAnalysis *MA = A.method(F))
        Findings += analysis::lintMethod(MA->Values, MA->Liveness).size();
    EXPECT_EQ(Findings, 0u) << W.Name;
  }
}

//===----------------------------------------------------------------------===//
// Demand-driven module facts
//===----------------------------------------------------------------------===//

TEST(AnalysisTest, DemandDrivenFactsMatchEagerCompute) {
  std::vector<std::pair<std::string, Module>> Modules;
  for (const WorkloadInfo &W : allWorkloads())
    Modules.emplace_back(W.Name, W.Build(W.DefaultScale));
  Modules.emplace_back("countingLoop", testprog::countingLoop(10));
  Modules.emplace_back("recursiveFactorial", testprog::recursiveFactorial(5));
  Modules.emplace_back("virtualDispatch", testprog::virtualDispatch());
  Modules.emplace_back("switchProgram", testprog::switchProgram());
  Modules.emplace_back("arraySquares", testprog::arraySquares(8));
  Modules.emplace_back("hotLoop", testprog::hotLoop(100));
  Modules.emplace_back("divideByZero", testprog::divideByZero());

  for (const auto &[Name, M] : Modules) {
    SCOPED_TRACE(Name);
    ModuleAnalysis Eager = ModuleAnalysis::compute(M);
    ModuleAnalysis Lazy(M);
    ASSERT_EQ(Lazy.numMethods(), Eager.numMethods());
    EXPECT_EQ(Lazy.methodsComputed(), 0u);
    EXPECT_EQ(Eager.methodsComputed(), Eager.numMethods());
    // Back to front, so no method is computed in the eager order.
    for (uint32_t F = Lazy.numMethods(); F-- > 0;) {
      const MethodAnalysis *L = Lazy.method(F);
      const MethodAnalysis *E = Eager.method(F);
      ASSERT_TRUE(L && E) << "method " << F;
      EXPECT_EQ(Lazy.method(F), L) << "facts are published once";
      ASSERT_EQ(L->Cfg.numBlocks(), E->Cfg.numBlocks()) << "method " << F;
      for (uint32_t B = 0; B < L->Cfg.numBlocks(); ++B) {
        EXPECT_TRUE(std::ranges::equal(L->Cfg.block(B).Succs,
                                       E->Cfg.block(B).Succs));
        EXPECT_EQ(L->Values.blockEntry(B), E->Values.blockEntry(B))
            << "method " << F << " block " << B;
      }
      for (uint32_t Pc = 0; Pc <= M.Methods[F].Code.size(); ++Pc) {
        if (Pc < M.Methods[F].Code.size())
          EXPECT_EQ(L->Values.decisionAt(Pc), E->Values.decisionAt(Pc))
              << "method " << F << " pc " << Pc;
        EXPECT_EQ(L->Liveness.liveIn(Pc), E->Liveness.liveIn(Pc))
            << "method " << F << " pc " << Pc;
      }
    }
    EXPECT_EQ(Lazy.methodsComputed(), Lazy.numMethods());
  }
}

//===----------------------------------------------------------------------===//
// Dynamic facts refine static facts
//===----------------------------------------------------------------------===//

TEST(RefinementTest, GeneratedProgramsRefineTheirStaticFacts) {
  // The property test tying the whole framework to the interpreter:
  // execute generated programs and require every observed local at every
  // block leader to be inside its static may-set (ranges contain the
  // value, non-null refs are live handles of a may-set class, executed
  // blocks are statically reachable).
  fuzz::GenConfig Cfg;
  Cfg.Features.Traps = true;
  for (uint64_t Seed = 1; Seed <= 60; ++Seed) {
    Module M = fuzz::RandomProgramBuilder(Seed, Cfg).build();
    ASSERT_TRUE(verifyModule(M).empty()) << "seed " << Seed;
    std::vector<fuzz::Violation> Vs = fuzz::checkRefinement(M, 2'000'000);
    EXPECT_TRUE(Vs.empty()) << "seed " << Seed << "\n"
                            << fuzz::formatViolations(Vs);
  }
}

TEST(RefinementTest, HandBuiltProgramsRefineTheirStaticFacts) {
  for (const Module &M :
       {testprog::countingLoop(10), testprog::recursiveFactorial(6),
        testprog::virtualDispatch(), testprog::switchProgram(),
        testprog::arraySquares(8), testprog::divideByZero()}) {
    std::vector<fuzz::Violation> Vs = fuzz::checkRefinement(M, 2'000'000);
    EXPECT_TRUE(Vs.empty()) << fuzz::formatViolations(Vs);
  }
}

TEST(RefinementTest, AuditFiresOnUnsoundFacts) {
  // Sensitivity: facts computed over a program where local 0 is the
  // constant 5, applied to an otherwise identical execution where it is
  // 50. A silent pass here would mean the audit can never catch a real
  // soundness bug.
  auto build = [](int64_t C) {
    Assembler Asm;
    uint32_t Main = Asm.declareMethod("main", 0, 1, false);
    MethodBuilder B = Asm.beginMethod(Main);
    Label L = B.newLabel();
    B.iconst(C);
    B.istore(0);
    B.branch(Opcode::Goto, L);
    B.bind(L); // block leader: the audit checks local 0 here
    B.iload(0);
    B.emit(Opcode::Iprint);
    B.halt();
    B.finish();
    Asm.setEntry(Main);
    return Asm.build();
  };
  Module Claimed = build(5), Actual = build(50);
  ModuleAnalysis WrongFacts = ModuleAnalysis::compute(Claimed);
  std::vector<fuzz::Violation> Vs =
      fuzz::checkRefinement(Actual, WrongFacts, 10'000);
  ASSERT_FALSE(Vs.empty());
  EXPECT_EQ(Vs[0].Rule, "refinement-range");
}

//===----------------------------------------------------------------------===//
// The per-module proof memo
//===----------------------------------------------------------------------===//

TEST(TraceProofMemoTest, ShapesPastTheCapAreProvedButNotKept) {
  analysis::TraceProofMemo Memo(/*Cap=*/2);
  const std::vector<std::vector<uint32_t>> Shapes = {
      {1, 2}, {3, 4, 5}, {6, 7}, {8, 9, 10}};
  // A stand-in prover whose verdict is a function of the shape.
  auto Prove = [](const std::vector<uint32_t> &B, uint64_t Config) {
    return analysis::TraceVerdict{B.size() % 2 == 0,
                                  static_cast<uint32_t>(Config), B[0],
                                  "block " + std::to_string(B.back())};
  };
  unsigned Calls = 0;
  for (int Round = 0; Round < 3; ++Round) {
    for (size_t I = 0; I < Shapes.size(); ++I) {
      bool Reused = false;
      analysis::TraceVerdict V = Memo.verdict(
          {Shapes[I], 7},
          [&] {
            ++Calls;
            return Prove(Shapes[I], 7);
          },
          Reused);
      EXPECT_EQ(V, Prove(Shapes[I], 7)) << "round " << Round << " shape " << I;
      // The first two shapes fill the memo; the rest are proved each time.
      EXPECT_EQ(Reused, Round > 0 && I < 2) << "round " << Round << " shape "
                                           << I;
    }
  }
  EXPECT_EQ(Memo.shapesHeld(), 2u);
  EXPECT_EQ(Calls, 4u + 2 * 2);
  EXPECT_EQ(Memo.proofsComputed(), Calls);

  // Another configuration is another shape, past the cap as well.
  bool Reused = true;
  EXPECT_EQ(Memo.verdict({Shapes[0], 8}, [&] { return Prove(Shapes[0], 8); },
                         Reused),
            Prove(Shapes[0], 8));
  EXPECT_FALSE(Reused);

  // A held shape keeps its check-elision facts beside its verdict.
  const std::vector<analysis::TraceMemFact> Facts = {
      {1, 4, ElideLevel::Full}};
  for (int Round = 0; Round < 2; ++Round) {
    EXPECT_EQ(Memo.memFacts({Shapes[1], 7}, [&] { return Facts; }, Reused),
              Facts);
    EXPECT_EQ(Reused, Round == 1);
    EXPECT_TRUE(Memo.memFacts({Shapes[3], 7}, [] {
                      return std::vector<analysis::TraceMemFact>();
                    }, Reused).empty());
    EXPECT_FALSE(Reused);
  }
  EXPECT_EQ(Memo.shapesHeld(), 2u);
}
