//===- tests/backend_test.cpp - Trace tiers and equivalence ---------------===//
///
/// \file
/// The two trace tiers: interp/JIT bit-equivalence, guard side-exit state
/// materialization, budget cuts inside traces, compile-failure fallback,
/// tier-promotion accounting, and the module's shared native code.
/// Everything here runs against the
/// contract in backend/JitBackend.h -- which tier executes a dispatched
/// trace must be unobservable except through the digest-excluded tier
/// counters.
///
//===----------------------------------------------------------------------===//

#include "backend/JitBackend.h"
#include "backend/X64Emitter.h"

#include "SessionStats.h"
#include "TestPrograms.h"
#include "interp/InstructionInterpreter.h"
#include "runtime/Heap.h"
#include "vm/TraceVM.h"
#include "workloads/Workloads.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <tuple>

#include <gtest/gtest.h>

using namespace jtc;

namespace {

/// main: a hot loop where every RareEvery-th iteration takes the cold
/// branch direction, so the hot trace's guard keeps firing mid-trace and
/// the side exit must materialize interpreter-exact state (locals i, sum
/// and the countdown are all live across the exit).
Module biasedBranchLoop(int32_t N, int32_t RareEvery) {
  Assembler Asm;
  uint32_t Main = Asm.declareMethod("main", 0, 3, false);
  MethodBuilder B = Asm.beginMethod(Main);
  Label Loop = B.newLabel(), Rare = B.newLabel(), Cont = B.newLabel(),
        Done = B.newLabel();
  B.iconst(0);
  B.istore(0); // i
  B.iconst(0);
  B.istore(1); // sum
  B.iconst(RareEvery);
  B.istore(2); // countdown to the rare direction
  B.bind(Loop);
  B.iload(0);
  B.iconst(N);
  B.branch(Opcode::IfIcmpGe, Done);
  B.iload(2);
  B.iconst(1);
  B.emit(Opcode::Isub);
  B.istore(2);
  B.iload(2);
  B.iconst(0);
  B.branch(Opcode::IfIcmpLe, Rare);
  B.iload(1);
  B.iconst(1);
  B.emit(Opcode::Iadd);
  B.istore(1);
  B.branch(Opcode::Goto, Cont);
  B.bind(Rare);
  B.iconst(RareEvery);
  B.istore(2);
  B.iload(1);
  B.iconst(100);
  B.emit(Opcode::Iadd);
  B.istore(1);
  B.bind(Cont);
  B.iinc(0, 1);
  B.branch(Opcode::Goto, Loop);
  B.bind(Done);
  B.iload(1);
  B.emit(Opcode::Iprint);
  B.halt();
  B.finish();
  Asm.setEntry(Main);
  return Asm.build();
}

/// main: a hot loop over a virtual call whose receiver alternates between
/// two classes, so a trace through the call sees the "wrong" resolved
/// callee on every other iteration (the DivergeCallee exit path).
Module polymorphicCallLoop(int32_t N) {
  Assembler Asm;
  uint32_t Slot = Asm.declareSlot("val", 1, true);
  uint32_t CA = Asm.declareClass("A", 1);
  uint32_t CB = Asm.declareClass("B", 1);
  uint32_t MA = Asm.declareMethod("A.val", 1, 1, true);
  {
    MethodBuilder B = Asm.beginMethod(MA);
    B.iload(0);
    B.getfield(0);
    B.iconst(1);
    B.emit(Opcode::Iadd);
    B.iret();
    B.finish();
  }
  uint32_t MB = Asm.declareMethod("B.val", 1, 1, true);
  {
    MethodBuilder B = Asm.beginMethod(MB);
    B.iload(0);
    B.getfield(0);
    B.iconst(2);
    B.emit(Opcode::Imul);
    B.iret();
    B.finish();
  }
  Asm.setVtableEntry(CA, Slot, MA);
  Asm.setVtableEntry(CB, Slot, MB);

  uint32_t Main = Asm.declareMethod("main", 0, 5, false);
  {
    MethodBuilder B = Asm.beginMethod(Main);
    Label Loop = B.newLabel(), UseA = B.newLabel(), Acc = B.newLabel(),
          Done = B.newLabel();
    B.newobj(CA);
    B.emit(Opcode::Dup);
    B.iconst(3);
    B.putfield(0);
    B.istore(0); // a
    B.newobj(CB);
    B.emit(Opcode::Dup);
    B.iconst(4);
    B.putfield(0);
    B.istore(1); // b
    B.iconst(0);
    B.istore(2); // i
    B.iconst(0);
    B.istore(3); // sum
    B.iconst(0);
    B.istore(4); // toggle
    B.bind(Loop);
    B.iload(2);
    B.iconst(N);
    B.branch(Opcode::IfIcmpGe, Done);
    B.iload(4);
    B.iconst(0);
    B.branch(Opcode::IfIcmpEq, UseA);
    B.iload(1);
    B.invokevirtual(Slot);
    B.branch(Opcode::Goto, Acc);
    B.bind(UseA);
    B.iload(0);
    B.invokevirtual(Slot);
    B.bind(Acc);
    B.iload(3);
    B.emit(Opcode::Iadd);
    B.istore(3);
    B.iconst(1);
    B.iload(4);
    B.emit(Opcode::Isub);
    B.istore(4); // toggle = 1 - toggle
    B.iinc(2, 1);
    B.branch(Opcode::Goto, Loop);
    B.bind(Done);
    B.iload(3);
    B.emit(Opcode::Iprint);
    B.halt();
    B.finish();
  }
  Asm.setEntry(Main);
  return Asm.build();
}

VmOptions baseOptions() {
  return VmOptions().startStateDelay(8).completionThreshold(0.9);
}

VmOptions interpOptions() {
  return baseOptions().backend(backend::BackendKind::Interp);
}

VmOptions jitOptions() { return testprog::promoteAll(baseOptions()); }

bool hostHasJit() { return backend::jitSupportedHost(); }

/// main: a hot loop over a tableswitch on i & 31 -- case 0 (one iteration
/// in 32) takes the rare arm, the default the common one -- so the hot
/// trace runs through the switch, and its switch guard fires on every
/// 32nd iteration.
Module switchLoop(int32_t N) {
  Assembler Asm;
  uint32_t Main = Asm.declareMethod("main", 0, 2, false);
  MethodBuilder B = Asm.beginMethod(Main);
  Label Loop = B.newLabel(), Rare = B.newLabel(), Common = B.newLabel(),
        Join = B.newLabel(), Done = B.newLabel();
  B.iconst(0);
  B.istore(0); // i
  B.iconst(0);
  B.istore(1); // sum
  B.bind(Loop);
  B.iload(0);
  B.iconst(N);
  B.branch(Opcode::IfIcmpGe, Done);
  B.iload(0);
  B.iconst(31);
  B.emit(Opcode::Iand);
  B.tableswitch(0, {Rare}, Common);
  B.bind(Rare);
  B.iload(1);
  B.iconst(7);
  B.emit(Opcode::Imul);
  B.istore(1);
  B.branch(Opcode::Goto, Join);
  B.bind(Common);
  B.iload(1);
  B.iload(0);
  B.emit(Opcode::Iadd);
  B.istore(1);
  B.bind(Join);
  B.iinc(0, 1);
  B.branch(Opcode::Goto, Loop);
  B.bind(Done);
  B.iload(1);
  B.emit(Opcode::Iprint);
  B.halt();
  B.finish();
  Asm.setEntry(Main);
  return Asm.build();
}

/// main: a hot loop storing i into a[i] while i <= Len, over an array
/// of Len elements, so the run ends in an out-of-bounds trap on the
/// store at i == Len. The array is a fresh allocation held in a
/// local, so the alias analysis proves the store's null check redundant
/// but keeps its bounds check.
Module arrayOverrun(int32_t Len) {
  Assembler Asm;
  uint32_t Main = Asm.declareMethod("main", 0, 2, false);
  MethodBuilder B = Asm.beginMethod(Main);
  Label Loop = B.newLabel(), Done = B.newLabel();
  B.iconst(Len);
  B.emit(Opcode::NewArray);
  B.istore(0); // a
  B.iconst(0);
  B.istore(1); // i
  B.bind(Loop);
  B.iload(1);
  B.iconst(Len);
  B.branch(Opcode::IfIcmpGt, Done);
  B.iload(0);
  B.iload(1);
  B.iload(1);
  B.emit(Opcode::Iastore);
  B.iinc(1, 1);
  B.branch(Opcode::Goto, Loop);
  B.bind(Done);
  B.halt();
  B.finish();
  Asm.setEntry(Main);
  return Asm.build();
}

/// Records a session's full block-transition stream (the btrace
/// encoder's input).
class SequenceSink : public BlockTransitionSink {
public:
  std::vector<BlockId> Blocks;

  void onRunStart(BlockId Entry) override { Blocks.push_back(Entry); }
  void onTransition(BlockId, BlockId To) override { Blocks.push_back(To); }
  void onRunEnd(const RunResult &, const VmStats &) override {}
};

} // namespace

//===----------------------------------------------------------------------===//
// Interp/JIT equivalence
//===----------------------------------------------------------------------===//

TEST(BackendTest, InterpJitBitEquivalence) {
  if (!hostHasJit())
    GTEST_SKIP() << "no template-JIT support on this host";
  const Module Programs[] = {
      testprog::countingLoop(20000),
      testprog::hotLoop(20000),
      testprog::recursiveFactorial(12),
      testprog::arraySquares(256),
      biasedBranchLoop(20000, 7),
      polymorphicCallLoop(20000),
  };
  for (const Module &M : Programs) {
    PreparedModule PM(M);
    TraceVM VI(PM, interpOptions());
    RunResult RI = VI.run();
    TraceVM VJ(PM, jitOptions());
    RunResult RJ = VJ.run();
    EXPECT_EQ(RI.Status, RJ.Status);
    EXPECT_EQ(RI.Instructions, RJ.Instructions);
    EXPECT_EQ(RI.Dispatches, RJ.Dispatches);
    EXPECT_EQ(VI.machine().output(), VJ.machine().output());
    EXPECT_EQ(heapDigest(VI.machine().heap()), heapDigest(VJ.machine().heap()));
    // The adaptive bookkeeping is committed identically: the full folded
    // stats digest (which excludes the tier counters) must match.
    EXPECT_EQ(VI.currentStats().digest(), VJ.currentStats().digest());
  }
}

TEST(BackendTest, GuardSideExitMaterializesState) {
  if (!hostHasJit())
    GTEST_SKIP() << "no template-JIT support on this host";
  // The rare branch direction fires the compiled trace's guard over and
  // over; every exit must leave exactly the interpreter's state, or sum
  // drifts and the printed output diverges from the plain interpreter.
  Module M = biasedBranchLoop(30000, 5);
  Machine Plain(M);
  RunResult RP = runInstructions(Plain);
  PreparedModule PM(M);
  TraceVM VM(PM, jitOptions());
  RunResult R = VM.run();
  EXPECT_EQ(RP.Status, R.Status);
  EXPECT_EQ(RP.Instructions, R.Instructions);
  EXPECT_EQ(Plain.output(), VM.machine().output());
  // The JIT tier actually ran: traces compiled and dispatched natively.
  const VmStats S = VM.currentStats();
  EXPECT_GT(S.TracesJitCompiled, 0u);
  EXPECT_GT(S.TraceDispatchesJit, 0u);
}

TEST(BackendTest, SwitchGuardExitsAreExact) {
  if (!hostHasJit())
    GTEST_SKIP() << "no template-JIT support on this host";
  // The hot trace crosses a tableswitch on its default arm; case 0 fires
  // the switch guard once every 32 iterations, and the exit must resume
  // at the rare arm with the interpreter's state, or the sum drifts.
  Module M = switchLoop(30000);
  Machine Plain(M);
  RunResult RP = runInstructions(Plain);
  PreparedModule PM(M);
  TraceVM VI(PM, interpOptions());
  VI.run();
  TraceVM VJ(PM, jitOptions());
  RunResult R = VJ.run();
  EXPECT_EQ(RP.Status, R.Status);
  EXPECT_EQ(RP.Instructions, R.Instructions);
  EXPECT_EQ(Plain.output(), VJ.machine().output());
  const VmStats S = VJ.currentStats();
  EXPECT_EQ(VI.currentStats().digest(), S.digest());
  EXPECT_EQ(S.TraceCompileFallbacks, 0u);
  EXPECT_GT(S.TraceDispatchesJit, 0u);
  EXPECT_EQ(S.TraceDispatchesInterp, 0u);
  // Some native runs left through the switch guard.
  EXPECT_LT(S.TracesCompleted, S.TraceDispatches);
}

TEST(BackendTest, ElidedCodeKeepsTheBoundsCheck) {
  if (!hostHasJit())
    GTEST_SKIP() << "no template-JIT support on this host";
  // Promotion compiles the store's null check away but not its bounds
  // check: the native run must trap where the interpreter does.
  Module M = arrayOverrun(4096);
  Machine Plain(M);
  RunResult RP = runInstructions(Plain);
  ASSERT_EQ(RP.Status, RunStatus::Trapped);
  PreparedModule PM(M);
  TraceVM VI(PM, interpOptions());
  RunResult RI = VI.run();
  TraceVM VJ(PM, jitOptions());
  RunResult RJ = VJ.run();
  EXPECT_EQ(RJ.Status, RunStatus::Trapped);
  EXPECT_EQ(VJ.machine().trap(), Plain.trap());
  EXPECT_EQ(RJ.Instructions, RI.Instructions);
  EXPECT_EQ(heapDigest(VJ.machine().heap()), heapDigest(Plain.heap()));
  const VmStats S = VJ.currentStats();
  EXPECT_GT(S.TraceDispatchesJit, 0u);
  EXPECT_GT(S.MemElisionSites, 0u);
  EXPECT_GT(S.MemChecksElided, 0u);
}

TEST(BackendTest, CallAndReturnDivergenceExitsAreExact) {
  if (!hostHasJit())
    GTEST_SKIP() << "no template-JIT support on this host";
  // Alternating receivers force the virtual-call guard to diverge on
  // every other trace entry; the frame helper has already pushed the
  // real callee frame when the exit fires, so any state error shows up
  // in the sum immediately.
  Module M = polymorphicCallLoop(30000);
  Machine Plain(M);
  RunResult RP = runInstructions(Plain);
  PreparedModule PM(M);
  TraceVM VM(PM, jitOptions());
  RunResult R = VM.run();
  EXPECT_EQ(RP.Status, R.Status);
  EXPECT_EQ(RP.Instructions, R.Instructions);
  EXPECT_EQ(Plain.output(), VM.machine().output());
  EXPECT_GT(VM.currentStats().TraceDispatchesJit, 0u);
}

TEST(BackendTest, LargeConstantsLowerOnTheJitTier) {
  if (!hostHasJit())
    GTEST_SKIP() << "no template-JIT support on this host";
  // A hot loop whose trace carries iconst 0x7fffffff: the constant must
  // lower as an immediate without being mistaken for a local-slot offset
  // (signed overflow under UBSan), and the wrapped sum must match.
  Assembler Asm;
  uint32_t Main = Asm.declareMethod("main", 0, 2, false);
  MethodBuilder B = Asm.beginMethod(Main);
  Label Loop = B.newLabel(), Done = B.newLabel();
  B.iconst(20000);
  B.istore(0);
  B.bind(Loop);
  B.iload(0);
  B.branch(Opcode::IfLe, Done);
  B.iload(1);
  B.iconst(0x7fffffff);
  B.emit(Opcode::Iadd);
  B.istore(1);
  B.iinc(0, -1);
  B.branch(Opcode::Goto, Loop);
  B.bind(Done);
  B.iload(1);
  B.emit(Opcode::Iprint);
  B.halt();
  B.finish();
  Asm.setEntry(Main);
  Module M = Asm.build();

  Machine Plain(M);
  RunResult RP = runInstructions(Plain);
  PreparedModule PM(M);
  TraceVM VM(PM, jitOptions());
  RunResult R = VM.run();
  EXPECT_EQ(RP.Status, R.Status);
  EXPECT_EQ(RP.Instructions, R.Instructions);
  EXPECT_EQ(Plain.output(), VM.machine().output());
  EXPECT_EQ(VM.machine().output(),
            (std::vector<int64_t>{int64_t{0x7fffffff} * 20000}));
  const VmStats S = VM.currentStats();
  EXPECT_GT(S.TracesJitCompiled, 0u);
  EXPECT_GT(S.TraceDispatchesJit, 0u);
}

TEST(BackendTest, BudgetCutInsideATraceMatchesAcrossTiers) {
  if (!hostHasJit())
    GTEST_SKIP() << "no template-JIT support on this host";
  // The instruction budget is checked after every block, by TraceVM's
  // dispatch loop alone. The JIT declines any trace entry the remaining
  // budget could cut, so a cut that lands inside a hot trace must end
  // both tiers on the same block with the same state. The sweep's stride
  // is coprime with both loop bodies, so the cuts walk every position of
  // the hot traces.
  const Module Programs[] = {testprog::hotLoop(20000), switchLoop(20000)};
  for (const Module &M : Programs) {
    PreparedModule PM(M);
#ifdef JTC_TELEMETRY
    unsigned CutsInTraces = 0;
#endif
    uint64_t NativeRuns = 0;
    for (uint64_t Budget = 1; Budget < 200000; Budget += 1999) {
      SequenceSink SI, SJ;
      TraceVM VI(PM, interpOptions().maxInstructions(Budget).telemetry(true));
      VI.setTransitionSink(&SI);
      RunResult RI = VI.run();
      TraceVM VJ(PM, jitOptions().maxInstructions(Budget).telemetry(true));
      VJ.setTransitionSink(&SJ);
      RunResult RJ = VJ.run();
      SCOPED_TRACE("budget " + std::to_string(Budget));
      ASSERT_EQ(RunStatus::BudgetExhausted, RI.Status);
      EXPECT_EQ(RI.Status, RJ.Status);
      EXPECT_EQ(RI.Instructions, RJ.Instructions);
      EXPECT_EQ(VI.machine().output(), VJ.machine().output());
      EXPECT_EQ(heapDigest(VI.machine().heap()),
                heapDigest(VJ.machine().heap()));
      EXPECT_EQ(VI.currentStats().digest(), VJ.currentStats().digest());
      EXPECT_EQ(SI.Blocks, SJ.Blocks);
      NativeRuns += VJ.currentStats().TraceDispatchesJit;
#ifdef JTC_TELEMETRY
      // endRun() exits a trace the cut landed in, stamped with the final
      // block clock; a divergence exit always precedes another block.
      const EventRing &Ring = VI.events();
      if (Ring.size() > 0) {
        const Event &Last = Ring.event(Ring.size() - 1);
        if (Last.Kind == EventKind::TraceEarlyExit &&
            Last.Clock == VI.stats().BlocksExecuted)
          ++CutsInTraces;
      }
#endif
    }
#ifdef JTC_TELEMETRY
    EXPECT_GT(CutsInTraces, 10u);
#endif
    // Between the cuts, the hot traces run natively.
    EXPECT_GT(NativeRuns, 0u);
  }
}

//===----------------------------------------------------------------------===//
// Fallback and tiering accounting
//===----------------------------------------------------------------------===//

TEST(BackendTest, CompileFailureFallsBackToInterpreter) {
  // Simulated unsupported host: every promotion attempt records a
  // HostUnsupported fallback, the native tier declines every trace, and
  // the dispatch loop block-steps the whole run with unchanged semantics.
  Module M = testprog::hotLoop(20000);
  Machine Plain(M);
  runInstructions(Plain);
  PreparedModule PM(M);
  TraceVM VM(PM, jitOptions().simulateUnsupportedHost(true));
  RunResult R = VM.run();
  EXPECT_EQ(RunStatus::Finished, R.Status);
  EXPECT_EQ(Plain.output(), VM.machine().output());
  const VmStats S = VM.currentStats();
  EXPECT_EQ(0u, S.TracesJitCompiled);
  EXPECT_EQ(0u, S.TraceDispatchesJit);
  EXPECT_EQ(0u, S.JitCodeBytes);
  EXPECT_GT(S.TraceCompileFallbacks, 0u);
  EXPECT_GT(S.TraceDispatchesInterp, 0u);
  EXPECT_EQ(S.TraceDispatches, S.TraceDispatchesInterp);
}

TEST(BackendTest, AutoResolvesPerHostSupport) {
  Module M = testprog::hotLoop(100);
  PreparedModule PM(M);
  TraceVM B(PM, baseOptions()
                    .backend(backend::BackendKind::Auto)
                    .simulateUnsupportedHost(true));
  EXPECT_STREQ("interp", backend::backendKindName(B.backendTier()));
  if (hostHasJit()) {
    TraceVM J(PM, baseOptions().backend(backend::BackendKind::Auto));
    EXPECT_STREQ("jit", backend::backendKindName(J.backendTier()));
  }
}

TEST(BackendTest, TierPromotionAccounting) {
  if (!hostHasJit())
    GTEST_SKIP() << "no template-JIT support on this host";
  // Promotion threshold 3: the first three completed dispatches of the
  // hot trace run on the interpreter tier, everything after compiles.
  Module M = testprog::hotLoop(50000);
  PreparedModule PM(M);
  TraceVM VM(PM, baseOptions()
                     .backend(backend::BackendKind::Jit)
                     .jitPromoteAfter(3));
  VM.run();
  const VmStats S = VM.currentStats();
  EXPECT_GT(S.TracesJitCompiled, 0u);
  EXPECT_GT(S.JitCodeBytes, 0u);
  EXPECT_GT(S.TraceDispatchesJit, 0u);
  // Pre-promotion dispatches of the compiled trace ran on the
  // interpreter tier.
  EXPECT_GE(S.TraceDispatchesInterp, 3u);
  // Every trace dispatch was served by exactly one tier.
  EXPECT_EQ(S.TraceDispatches, S.TraceDispatchesJit + S.TraceDispatchesInterp);
}

TEST(BackendTest, TierCountersAreDigestExcluded) {
  if (!hostHasJit())
    GTEST_SKIP() << "no template-JIT support on this host";
  // Which tier ran is configuration, not semantics: digests must match
  // across backends even though the tier counters differ wildly.
  Module M = testprog::hotLoop(30000);
  PreparedModule PM(M);
  TraceVM VI(PM, interpOptions());
  VI.run();
  TraceVM VJ(PM, jitOptions());
  VJ.run();
  const VmStats SI = VI.currentStats(), SJ = VJ.currentStats();
  EXPECT_NE(SI.TraceDispatchesJit, SJ.TraceDispatchesJit);
  EXPECT_EQ(SI.digest(), SJ.digest());
}

TEST(BackendTest, CompileFallbackNamesAreStable) {
  // Fallback codes surface in telemetry and --json; their names are part
  // of the public vocabulary, rendered through the shared TypedError
  // domain like every other taxonomy.
  using backend::CompileFallback;
  EXPECT_STREQ("host-unsupported",
               compileFallbackName(CompileFallback::HostUnsupported));
  EXPECT_STREQ("trace-shape",
               compileFallbackName(CompileFallback::TraceShape));
  TypedError E(backend::compileFallbackDomain(),
               static_cast<uint32_t>(CompileFallback::SwitchGuard),
               "trace 7");
  EXPECT_EQ("backend/switch-guard: trace 7", E.qualifiedMessage());
}

//===----------------------------------------------------------------------===//
// The module's native code
//===----------------------------------------------------------------------===//

namespace {

/// What one session did, as far as any output, statistic or event shows.
struct SessionRecord {
  RunResult Run;
  std::vector<int64_t> Output;
  uint64_t HeapDigest = 0;
  VmStats Stats;
  std::map<uint32_t, uint64_t> RejectsByReason;
  std::vector<BlockId> Blocks;
  std::vector<std::tuple<uint64_t, uint32_t, uint32_t, EventKind>> Events;
};

SessionRecord runSession(const PreparedModule &PM, const VmOptions &O) {
  TraceVM VM(PM, VmOptions(O).telemetry(true).telemetryCapacity(1u << 17));
  SequenceSink Sink;
  VM.setTransitionSink(&Sink);
  SessionRecord S;
  S.Run = VM.run();
  S.Output = VM.machine().output();
  S.HeapDigest = heapDigest(VM.machine().heap());
  S.Stats = VM.currentStats();
  EXPECT_EQ(S.Stats.EventsDropped, 0u);
  if (const backend::BackendStats *BS = VM.backendStats())
    S.RejectsByReason = BS->RejectsByReason;
  S.Blocks = std::move(Sink.Blocks);
  VM.events().forEach([&S](const Event &E) {
    S.Events.emplace_back(E.Clock, E.Id, E.Arg, E.Kind);
  });
  return S;
}

/// Checks that \p B executed, counted and reported exactly what \p A
/// did, but for the counters of what earlier sessions left behind.
void expectSameSession(const SessionRecord &A, const SessionRecord &B) {
  EXPECT_EQ(A.Run.Status, B.Run.Status);
  EXPECT_EQ(A.Run.Instructions, B.Run.Instructions);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.HeapDigest, B.HeapDigest);
  EXPECT_EQ(A.Stats.digest(), B.Stats.digest());
  EXPECT_EQ(testprog::statsDiff(A.Stats, B.Stats), "");
  EXPECT_EQ(A.RejectsByReason, B.RejectsByReason);
  EXPECT_EQ(A.Blocks, B.Blocks);
  EXPECT_EQ(A.Events, B.Events);
}

#ifdef JTC_TELEMETRY
/// Promotion events of \p S carrying \p Why as a compile fallback.
size_t fallbacksFor(const SessionRecord &S, backend::CompileFallback Why) {
  return static_cast<size_t>(std::count_if(
      S.Events.begin(), S.Events.end(), [Why](const auto &E) {
        return std::get<3>(E) == EventKind::TraceCompileFallback &&
               std::get<2>(E) == static_cast<uint32_t>(Why);
      }));
}
#endif

} // namespace

TEST(BackendTest, SecondSessionReusesTheModulesCode) {
  // Native code belongs to the PreparedModule: a second session over it
  // compiles nothing, and is indistinguishable from the first except
  // through the counters of what the first left behind.
  if (!hostHasJit())
    GTEST_SKIP() << "no template-JIT support on this host";
  std::vector<Module> Programs;
  Programs.push_back(biasedBranchLoop(20000, 7));
  Programs.push_back(polymorphicCallLoop(20000));
  Programs.push_back(switchLoop(20000));
  Programs.push_back(arrayOverrun(4096));
  for (const char *Name : {"javac", "mpegaudio"}) {
    const WorkloadInfo *W = findWorkload(Name);
    ASSERT_NE(W, nullptr);
    Programs.push_back(W->Build(std::max(1u, W->DefaultScale / 20)));
  }
  for (const VmOptions &O :
       {jitOptions(), baseOptions().backend(backend::BackendKind::Jit)}) {
    for (const Module &M : Programs) {
      PreparedModule PM(M);
      const backend::ModuleCode &Code = backend::moduleCode(PM);
      SessionRecord First = runSession(PM, O);
      const size_t Installs = Code.installs();
      ASSERT_GT(First.Stats.TracesJitCompiled, 0u);
      EXPECT_EQ(Code.tracesHeld(), Installs);
      // A shape that recurs within the session is compiled once.
      EXPECT_EQ(First.Stats.TracesJitCompiled,
                Installs + First.Stats.JitCodeReused);

      SessionRecord Second = runSession(PM, O);
      EXPECT_EQ(Code.installs(), Installs);
      EXPECT_EQ(Second.Stats.JitCodeReused, Second.Stats.TracesJitCompiled);
      expectSameSession(First, Second);

      // The first session is any first session.
      PreparedModule FreshPM(M);
      SessionRecord Fresh = runSession(FreshPM, O);
      expectSameSession(First, Fresh);
      EXPECT_EQ(First.Stats.JitCodeReused, Fresh.Stats.JitCodeReused);
    }
  }
}

TEST(BackendTest, ElideOffSessionDoesNotRunElidedCode) {
  // Elided code is keyed by the elision setting: a --mem-elide=off
  // session after an elided one compiles and runs its own, fully
  // checked code, and a repeat of it reuses that.
  if (!hostHasJit())
    GTEST_SKIP() << "no template-JIT support on this host";
  Module M = arrayOverrun(4096);
  PreparedModule PM(M);
  SessionRecord Elided = runSession(PM, jitOptions());
  ASSERT_GT(Elided.Stats.MemChecksElided, 0u);

  for (int Repeat = 0; Repeat < 2; ++Repeat) {
    SessionRecord Off = runSession(PM, jitOptions().memElide(false));
    EXPECT_EQ(Off.Run.Status, RunStatus::Trapped);
    EXPECT_EQ(Off.Run.Instructions, Elided.Run.Instructions);
    EXPECT_EQ(Off.HeapDigest, Elided.HeapDigest);
    EXPECT_GT(Off.Stats.TraceDispatchesJit, 0u);
    EXPECT_EQ(Off.Stats.MemElisionSites, 0u);
    EXPECT_EQ(Off.Stats.MemChecksElided, 0u);
    if (Repeat == 0)
      EXPECT_EQ(Off.Stats.JitCodeReused, 0u);
    else
      EXPECT_EQ(Off.Stats.JitCodeReused, Off.Stats.TracesJitCompiled);
  }
}

TEST(BackendTest, UnsupportedHostSessionRunsNoHeldCode) {
  // The module holding native code does not make a session without a
  // native tier run it.
  if (!hostHasJit())
    GTEST_SKIP() << "no template-JIT support on this host";
  Module M = testprog::hotLoop(20000);
  PreparedModule PM(M);
  SessionRecord Native = runSession(PM, jitOptions());
  ASSERT_GT(Native.Stats.TracesJitCompiled, 0u);
  SessionRecord None =
      runSession(PM, jitOptions().simulateUnsupportedHost(true));
  EXPECT_EQ(None.Output, Native.Output);
  EXPECT_EQ(None.Stats.digest(), Native.Stats.digest());
  EXPECT_EQ(None.Stats.TracesJitCompiled, 0u);
  EXPECT_EQ(None.Stats.JitCodeReused, 0u);
  EXPECT_EQ(None.Stats.TraceDispatchesJit, 0u);
  EXPECT_GT(None.Stats.TraceCompileFallbacks, 0u);
#ifdef JTC_TELEMETRY
  EXPECT_EQ(fallbacksFor(None, backend::CompileFallback::HostUnsupported),
            None.Stats.TraceCompileFallbacks);
#endif
}

TEST(BackendTest, FullCodeCacheFallsBackToCodeSpace) {
  // Past the module's cap a promotion gets no code: the trace records a
  // CodeSpace fallback and stays block-stepped, and the module's code
  // stays at the cap however many sessions promote new shapes. Such a
  // promotion lowers and proves nothing either, so every validation a
  // session credits is one of a trace that got code.
  if (!hostHasJit())
    GTEST_SKIP() << "no template-JIT support on this host";
  const WorkloadInfo *W = findWorkload("soot");
  ASSERT_NE(W, nullptr);
  Module M = W->Build(std::max(1u, W->DefaultScale / 20));
  PreparedModule Uncapped(M);
  SessionRecord Ref = runSession(Uncapped, testprog::promoteAll());
  const size_t Shapes = backend::moduleCode(Uncapped).tracesHeld();
  constexpr size_t Cap = 4;
  ASSERT_GT(Shapes, Cap);

  PreparedModule PM(M);
  const backend::ModuleCode &Code = backend::moduleCode(PM, Cap);
  for (int Session = 0; Session < 2; ++Session) {
    SessionRecord S = runSession(PM, testprog::promoteAll());
    EXPECT_EQ(S.Output, Ref.Output);
    EXPECT_EQ(S.HeapDigest, Ref.HeapDigest);
    EXPECT_EQ(S.Stats.digest(), Ref.Stats.digest());
    EXPECT_EQ(S.Blocks, Ref.Blocks);
    EXPECT_GT(S.Stats.TraceCompileFallbacks, 0u);
    EXPECT_EQ(S.Stats.TracesValidated, S.Stats.TracesJitCompiled);
#ifdef JTC_TELEMETRY
    EXPECT_EQ(fallbacksFor(S, backend::CompileFallback::CodeSpace),
              S.Stats.TraceCompileFallbacks);
#endif
    EXPECT_GT(S.Stats.TraceDispatchesJit, 0u);
    EXPECT_LT(S.Stats.TraceDispatchesJit, Ref.Stats.TraceDispatchesJit);
    EXPECT_EQ(Code.installs(), Cap);
    EXPECT_EQ(Code.tracesHeld(), Cap);
  }
  EXPECT_GT(Code.bytesHeld(), 0u);
#ifdef JTC_TELEMETRY
  // The held code is at most the cap's worth of the largest trace's
  // pages.
  uint32_t Largest = 0;
  for (const auto &E : Ref.Events)
    if (std::get<3>(E) == EventKind::TraceCompiled)
      Largest = std::max(Largest, std::get<2>(E));
  const size_t Page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  EXPECT_LE(Code.bytesHeld(), Cap * ((Largest + Page - 1) / Page * Page));
#endif
}

//===----------------------------------------------------------------------===//
// Frames inside native runs
//===----------------------------------------------------------------------===//

namespace {

/// main: for i in [0, Trip) print rec(Start + i * Step), where rec(n)
/// copies n into local k and counts it down to 0 through itself:
/// rec(n) = k + ... + rec(k - 1) + z, with Pending copies of k held on
/// the operand stack across the call and z the last of its Locals (at
/// least 3) locals, which nothing writes. The depth grows per
/// iteration, so a recursion that outgrows an arena or the frame budget
/// does so after its traces were promoted. The store to k sits in the
/// block a call enters, so a call template that left a stale locals
/// base behind loses it.
Module countdownRecursion(int32_t Trip, int32_t Start, int32_t Step,
                          uint32_t Locals, uint32_t Pending) {
  Assembler Asm;
  uint32_t Rec = Asm.declareMethod("rec", 1, Locals, true);
  {
    MethodBuilder B = Asm.beginMethod(Rec);
    Label Deeper = B.newLabel();
    B.iload(0);
    B.istore(1);
    B.iload(1);
    B.branch(Opcode::IfGt, Deeper);
    B.iconst(0);
    B.iret();
    B.bind(Deeper);
    for (uint32_t P = 0; P < Pending; ++P)
      B.iload(1);
    B.iload(1);
    B.iconst(1);
    B.emit(Opcode::Isub);
    B.invokestatic(Rec);
    for (uint32_t P = 0; P < Pending; ++P)
      B.emit(Opcode::Iadd);
    B.iload(Locals - 1);
    B.emit(Opcode::Iadd);
    B.iret();
    B.finish();
  }
  uint32_t Main = Asm.declareMethod("main", 0, 1, false);
  {
    MethodBuilder B = Asm.beginMethod(Main);
    Label Loop = B.newLabel(), Done = B.newLabel();
    B.iconst(0);
    B.istore(0);
    B.bind(Loop);
    B.iload(0);
    B.iconst(Trip);
    B.branch(Opcode::IfIcmpGe, Done);
    B.iload(0);
    B.iconst(Step);
    B.emit(Opcode::Imul);
    B.iconst(Start);
    B.emit(Opcode::Iadd);
    B.invokestatic(Rec);
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

/// main: for i in [0, N) add f(i) at one call site, except every 16th
/// iteration, which subtracts f(i) at another; f(x) has two blocks, so
/// the block its return ends does not tell which site called it. A
/// trace recorded through f's return into the common site meets the
/// rare one as a return to an unexpected site.
Module twoReturnSites(int32_t N) {
  Assembler Asm;
  uint32_t F = Asm.declareMethod("f", 1, 1, true);
  {
    MethodBuilder B = Asm.beginMethod(F);
    Label Join = B.newLabel();
    B.iload(0);
    B.branch(Opcode::IfGe, Join);
    B.iload(0);
    B.emit(Opcode::Ineg);
    B.istore(0);
    B.bind(Join);
    B.iload(0);
    B.iconst(3);
    B.emit(Opcode::Imul);
    B.iret();
    B.finish();
  }
  uint32_t Main = Asm.declareMethod("main", 0, 2, false);
  {
    MethodBuilder B = Asm.beginMethod(Main);
    Label Loop = B.newLabel(), Rare = B.newLabel(), Join = B.newLabel(),
          Done = B.newLabel();
    B.iconst(0);
    B.istore(0); // i
    B.iconst(0);
    B.istore(1); // sum
    B.bind(Loop);
    B.iload(0);
    B.iconst(N);
    B.branch(Opcode::IfIcmpGe, Done);
    B.iload(0);
    B.iconst(15);
    B.emit(Opcode::Iand);
    B.branch(Opcode::IfEq, Rare);
    B.iload(1);
    B.iload(0);
    B.invokestatic(F);
    B.emit(Opcode::Iadd);
    B.istore(1);
    B.branch(Opcode::Goto, Join);
    B.bind(Rare);
    B.iload(1);
    B.iload(0);
    B.invokestatic(F);
    B.emit(Opcode::Isub);
    B.istore(1);
    B.bind(Join);
    B.iinc(0, 1);
    B.branch(Opcode::Goto, Loop);
    B.bind(Done);
    B.iload(1);
    B.emit(Opcode::Iprint);
    B.halt();
    B.finish();
  }
  Asm.setEntry(Main);
  return Asm.build();
}

/// Runs \p M natively (every trace promoted) and block-stepped, checks
/// that both executed the same thing, and returns the native session.
SessionRecord expectTiersAgree(const Module &M) {
  PreparedModule PM(M);
  SessionRecord Stepped = runSession(PM, interpOptions());
  SessionRecord Native = runSession(PM, jitOptions());
  EXPECT_EQ(Native.Run.Status, Stepped.Run.Status);
  EXPECT_EQ(Native.Run.Trap, Stepped.Run.Trap);
  EXPECT_EQ(Native.Run.Instructions, Stepped.Run.Instructions);
  EXPECT_EQ(Native.Output, Stepped.Output);
  EXPECT_EQ(Native.HeapDigest, Stepped.HeapDigest);
  EXPECT_EQ(Native.Stats.digest(), Stepped.Stats.digest());
  EXPECT_EQ(Native.Blocks, Stepped.Blocks);
  EXPECT_GT(Native.Stats.TraceDispatchesJit, 0u);
  EXPECT_EQ(Stepped.Stats.JitFrameOpsInline, 0u);
  EXPECT_EQ(Stepped.Stats.JitFrameOpsHelper, 0u);
  return Native;
}

/// expectTiersAgree for a program whose native runs make calls.
SessionRecord expectNativeMatchesStepped(const Module &M) {
  SessionRecord Native = expectTiersAgree(M);
  EXPECT_GT(Native.Stats.JitFrameOpsInline, 0u);
  return Native;
}

} // namespace

TEST(BackendTest, CallThatGrowsTheLocalsArenaMidRun) {
  // 40 to 42 locals a frame: near depth 25 the 1024-slot locals arena
  // grows, and again near 50, while frames (under 64) and operands (one
  // held per frame) stay within their first arenas. No virtual call and
  // no bottom-frame return runs, so every helper call is a growth. The
  // depth steps by 3, so the frame a growth pushes has a positive count
  // and runs on into the block that stores it.
  if (!hostHasJit())
    GTEST_SKIP() << "no template-JIT support on this host";
  for (uint32_t Locals : {40u, 41u, 42u}) {
    SCOPED_TRACE(Locals);
    SessionRecord S = expectNativeMatchesStepped(
        countdownRecursion(/*Trip=*/20, /*Start=*/0, /*Step=*/3, Locals,
                           /*Pending=*/1));
    EXPECT_EQ(S.Run.Status, RunStatus::Finished);
    EXPECT_GT(S.Stats.JitFrameOpsHelper, 0u);
  }
}

TEST(BackendTest, CallThatGrowsTheOperandArenaMidRun) {
  // Eight to ten operands held a frame: past depth 25 to 32 the 256-slot
  // operand arena grows; locals (three a frame) and frames (under 64) do
  // not.
  if (!hostHasJit())
    GTEST_SKIP() << "no template-JIT support on this host";
  for (uint32_t Pending : {8u, 9u, 10u}) {
    SCOPED_TRACE(Pending);
    SessionRecord S = expectNativeMatchesStepped(
        countdownRecursion(/*Trip=*/60, /*Start=*/0, /*Step=*/1,
                           /*Locals=*/3, Pending));
    EXPECT_EQ(S.Run.Status, RunStatus::Finished);
    EXPECT_GT(S.Stats.JitFrameOpsHelper, 0u);
  }
}

TEST(BackendTest, FrameOverflowInsideANativeTrace) {
  // Depth 64 * i: the run holds the entry frame and depth + 1 frames of
  // rec, so the 2048-frame budget is spent at i = 32, deep inside a
  // promoted recursion. Both tiers trap at the same instruction.
  if (!hostHasJit())
    GTEST_SKIP() << "no template-JIT support on this host";
  SessionRecord S = expectNativeMatchesStepped(
      countdownRecursion(/*Trip=*/40, /*Start=*/0, /*Step=*/64,
                         /*Locals=*/4, /*Pending=*/1));
  EXPECT_EQ(S.Run.Status, RunStatus::Trapped);
  EXPECT_EQ(S.Run.Trap, TrapKind::StackOverflow);
  EXPECT_EQ(S.Output.size(), 32u);
  EXPECT_GT(S.Stats.JitFrameOpsHelper, 0u);
}

TEST(BackendTest, ReturnToAnUnexpectedSiteDiverges) {
  // Every 16th call of f returns to the rare site, against the common
  // site its traces recorded: native code must leave the trace at the
  // return with the caller's state exactly as block stepping leaves it.
  if (!hostHasJit())
    GTEST_SKIP() << "no template-JIT support on this host";
  SessionRecord S = expectNativeMatchesStepped(twoReturnSites(20000));
  EXPECT_EQ(S.Run.Status, RunStatus::Finished);
  EXPECT_GT(S.Stats.TraceDispatches, S.Stats.TracesCompleted);
  EXPECT_EQ(S.Stats.JitFrameOpsHelper, 0u);
}

//===----------------------------------------------------------------------===//
// Emitter encodings
//===----------------------------------------------------------------------===//

namespace {

using backend::Reg;
using backend::X64Emitter;

std::string hexOf(const std::vector<uint8_t> &Code) {
  std::string S;
  char Buf[4];
  for (uint8_t B : Code) {
    std::snprintf(Buf, sizeof(Buf), "%02x", B);
    S += std::string(S.empty() ? "" : " ") + Buf;
  }
  return S;
}

/// The registers the templates keep operand values in, in the order of
/// each form's expected encodings below.
constexpr Reg OperandPool[] = {Reg::Rcx, Reg::Rdx, Reg::Rsi, Reg::Rdi,
                               Reg::R8,  Reg::R9,  Reg::R10, Reg::R11};

struct PoolForm {
  const char *Name;
  void (*Emit)(X64Emitter &, Reg);
  std::array<const char *, 8> Bytes;
};

struct FixedForm {
  const char *Name;
  void (*Emit)(X64Emitter &);
  const char *Bytes;
};

} // namespace

TEST(X64EmitterTest, OperandRegisterFormsEncodeAsAssembled) {
  // Every form the templates emit with an operand register, once per
  // pool register: r8-r11 need REX.R or REX.B, and r13/rbp bases a zero
  // disp8. The expected bytes are the GNU assembler's encodings of the
  // same instructions (Intel syntax, with {load} choosing the reg, r/m
  // direction of the register-register forms the emitter uses).
#define FORM(Call, ...)                                                        \
  PoolForm {                                                                   \
    #Call, [](X64Emitter &E, Reg R) { E.Call; }, __VA_ARGS__                   \
  }
  const PoolForm Forms[] = {
      FORM(movRR(Reg::Rax, R),
           {"48 8b c1", "48 8b c2", "48 8b c6", "48 8b c7", "49 8b c0",
            "49 8b c1", "49 8b c2", "49 8b c3"}),
      FORM(movRR(R, Reg::Rax),
           {"48 8b c8", "48 8b d0", "48 8b f0", "48 8b f8", "4c 8b c0",
            "4c 8b c8", "4c 8b d0", "4c 8b d8"}),
      FORM(movRI(R, 5),
           {"b9 05 00 00 00", "ba 05 00 00 00", "be 05 00 00 00",
            "bf 05 00 00 00", "41 b8 05 00 00 00", "41 b9 05 00 00 00",
            "41 ba 05 00 00 00", "41 bb 05 00 00 00"}),
      FORM(movRI(R, -5),
           {"48 c7 c1 fb ff ff ff", "48 c7 c2 fb ff ff ff",
            "48 c7 c6 fb ff ff ff", "48 c7 c7 fb ff ff ff",
            "49 c7 c0 fb ff ff ff", "49 c7 c1 fb ff ff ff",
            "49 c7 c2 fb ff ff ff", "49 c7 c3 fb ff ff ff"}),
      FORM(movRI(R, INT64_MIN),
           {"48 b9 00 00 00 00 00 00 00 80", "48 ba 00 00 00 00 00 00 00 80",
            "48 be 00 00 00 00 00 00 00 80", "48 bf 00 00 00 00 00 00 00 80",
            "49 b8 00 00 00 00 00 00 00 80", "49 b9 00 00 00 00 00 00 00 80",
            "49 ba 00 00 00 00 00 00 00 80", "49 bb 00 00 00 00 00 00 00 80"}),
      FORM(movRM(R, Reg::R13, 8),
           {"49 8b 4d 08", "49 8b 55 08", "49 8b 75 08", "49 8b 7d 08",
            "4d 8b 45 08", "4d 8b 4d 08", "4d 8b 55 08", "4d 8b 5d 08"}),
      FORM(movRM(R, Reg::R14, -8),
           {"49 8b 4e f8", "49 8b 56 f8", "49 8b 76 f8", "49 8b 7e f8",
            "4d 8b 46 f8", "4d 8b 4e f8", "4d 8b 56 f8", "4d 8b 5e f8"}),
      FORM(movRM(R, Reg::Rbp, 0),
           {"48 8b 4d 00", "48 8b 55 00", "48 8b 75 00", "48 8b 7d 00",
            "4c 8b 45 00", "4c 8b 4d 00", "4c 8b 55 00", "4c 8b 5d 00"}),
      FORM(movMR(Reg::R13, 0, R),
           {"49 89 4d 00", "49 89 55 00", "49 89 75 00", "49 89 7d 00",
            "4d 89 45 00", "4d 89 4d 00", "4d 89 55 00", "4d 89 5d 00"}),
      FORM(movMR(Reg::R14, 512, R),
           {"49 89 8e 00 02 00 00", "49 89 96 00 02 00 00",
            "49 89 b6 00 02 00 00", "49 89 be 00 02 00 00",
            "4d 89 86 00 02 00 00", "4d 89 8e 00 02 00 00",
            "4d 89 96 00 02 00 00", "4d 89 9e 00 02 00 00"}),
      FORM(movMR(R, 0, Reg::Rax),
           {"48 89 01", "48 89 02", "48 89 06", "48 89 07", "49 89 00",
            "49 89 01", "49 89 02", "49 89 03"}),
      FORM(movMR(R, 8, Reg::R14),
           {"4c 89 71 08", "4c 89 72 08", "4c 89 76 08", "4c 89 77 08",
            "4d 89 70 08", "4d 89 71 08", "4d 89 72 08", "4d 89 73 08"}),
      FORM(movMR(Reg::Rbp, 56, R),
           {"48 89 4d 38", "48 89 55 38", "48 89 75 38", "48 89 7d 38",
            "4c 89 45 38", "4c 89 4d 38", "4c 89 55 38", "4c 89 5d 38"}),
      FORM(movMI32(R, 16, 7),
           {"48 c7 41 10 07 00 00 00", "48 c7 42 10 07 00 00 00",
            "48 c7 46 10 07 00 00 00", "48 c7 47 10 07 00 00 00",
            "49 c7 40 10 07 00 00 00", "49 c7 41 10 07 00 00 00",
            "49 c7 42 10 07 00 00 00", "49 c7 43 10 07 00 00 00"}),
      FORM(leaRM(R, Reg::R13, 64),
           {"49 8d 4d 40", "49 8d 55 40", "49 8d 75 40", "49 8d 7d 40",
            "4d 8d 45 40", "4d 8d 4d 40", "4d 8d 55 40", "4d 8d 5d 40"}),
      FORM(leaRM(R, Reg::Rax, -32),
           {"48 8d 48 e0", "48 8d 50 e0", "48 8d 70 e0", "48 8d 78 e0",
            "4c 8d 40 e0", "4c 8d 48 e0", "4c 8d 50 e0", "4c 8d 58 e0"}),
      FORM(movR32M(R, Reg::R8, 24),
           {"41 8b 48 18", "41 8b 50 18", "41 8b 70 18", "41 8b 78 18",
            "45 8b 40 18", "45 8b 48 18", "45 8b 50 18", "45 8b 58 18"}),
      FORM(movM32R(Reg::Rbp, 64, R),
           {"89 4d 40", "89 55 40", "89 75 40", "89 7d 40", "44 89 45 40",
            "44 89 4d 40", "44 89 55 40", "44 89 5d 40"}),
      FORM(movM32I(R, 20, 9),
           {"c7 41 14 09 00 00 00", "c7 42 14 09 00 00 00",
            "c7 46 14 09 00 00 00", "c7 47 14 09 00 00 00",
            "41 c7 40 14 09 00 00 00", "41 c7 41 14 09 00 00 00",
            "41 c7 42 14 09 00 00 00", "41 c7 43 14 09 00 00 00"}),
      FORM(addRR(R, Reg::R9),
           {"49 03 c9", "49 03 d1", "49 03 f1", "49 03 f9", "4d 03 c1",
            "4d 03 c9", "4d 03 d1", "4d 03 d9"}),
      FORM(subRR(R, Reg::Rcx),
           {"48 2b c9", "48 2b d1", "48 2b f1", "48 2b f9", "4c 2b c1",
            "4c 2b c9", "4c 2b d1", "4c 2b d9"}),
      FORM(andRR(R, Reg::Rdx),
           {"48 23 ca", "48 23 d2", "48 23 f2", "48 23 fa", "4c 23 c2",
            "4c 23 ca", "4c 23 d2", "4c 23 da"}),
      FORM(orRR(R, Reg::R11),
           {"49 0b cb", "49 0b d3", "49 0b f3", "49 0b fb", "4d 0b c3",
            "4d 0b cb", "4d 0b d3", "4d 0b db"}),
      FORM(xorRR(R, Reg::Rsi),
           {"48 33 ce", "48 33 d6", "48 33 f6", "48 33 fe", "4c 33 c6",
            "4c 33 ce", "4c 33 d6", "4c 33 de"}),
      FORM(cmpRR(R, Reg::R10),
           {"49 3b ca", "49 3b d2", "49 3b f2", "49 3b fa", "4d 3b c2",
            "4d 3b ca", "4d 3b d2", "4d 3b da"}),
      FORM(imulRR(R, Reg::Rdi),
           {"48 0f af cf", "48 0f af d7", "48 0f af f7", "48 0f af ff",
            "4c 0f af c7", "4c 0f af cf", "4c 0f af d7", "4c 0f af df"}),
      FORM(addRM(R, Reg::R13, 8),
           {"49 03 4d 08", "49 03 55 08", "49 03 75 08", "49 03 7d 08",
            "4d 03 45 08", "4d 03 4d 08", "4d 03 55 08", "4d 03 5d 08"}),
      FORM(subRM(R, Reg::R14, -16),
           {"49 2b 4e f0", "49 2b 56 f0", "49 2b 76 f0", "49 2b 7e f0",
            "4d 2b 46 f0", "4d 2b 4e f0", "4d 2b 56 f0", "4d 2b 5e f0"}),
      FORM(andRM(R, Reg::R13, 0),
           {"49 23 4d 00", "49 23 55 00", "49 23 75 00", "49 23 7d 00",
            "4d 23 45 00", "4d 23 4d 00", "4d 23 55 00", "4d 23 5d 00"}),
      FORM(orRM(R, Reg::R14, 0),
           {"49 0b 0e", "49 0b 16", "49 0b 36", "49 0b 3e", "4d 0b 06",
            "4d 0b 0e", "4d 0b 16", "4d 0b 1e"}),
      FORM(xorRM(R, Reg::R13, 200),
           {"49 33 8d c8 00 00 00", "49 33 95 c8 00 00 00",
            "49 33 b5 c8 00 00 00", "49 33 bd c8 00 00 00",
            "4d 33 85 c8 00 00 00", "4d 33 8d c8 00 00 00",
            "4d 33 95 c8 00 00 00", "4d 33 9d c8 00 00 00"}),
      FORM(cmpRM(R, Reg::Rbp, 8),
           {"48 3b 4d 08", "48 3b 55 08", "48 3b 75 08", "48 3b 7d 08",
            "4c 3b 45 08", "4c 3b 4d 08", "4c 3b 55 08", "4c 3b 5d 08"}),
      FORM(imulRM(R, Reg::R13, 16),
           {"49 0f af 4d 10", "49 0f af 55 10", "49 0f af 75 10",
            "49 0f af 7d 10", "4d 0f af 45 10", "4d 0f af 4d 10",
            "4d 0f af 55 10", "4d 0f af 5d 10"}),
      FORM(addRI(R, 1),
           {"48 83 c1 01", "48 83 c2 01", "48 83 c6 01", "48 83 c7 01",
            "49 83 c0 01", "49 83 c1 01", "49 83 c2 01", "49 83 c3 01"}),
      FORM(subRI(R, 1000),
           {"48 81 e9 e8 03 00 00", "48 81 ea e8 03 00 00",
            "48 81 ee e8 03 00 00", "48 81 ef e8 03 00 00",
            "49 81 e8 e8 03 00 00", "49 81 e9 e8 03 00 00",
            "49 81 ea e8 03 00 00", "49 81 eb e8 03 00 00"}),
      FORM(andRI(R, 255),
           {"48 81 e1 ff 00 00 00", "48 81 e2 ff 00 00 00",
            "48 81 e6 ff 00 00 00", "48 81 e7 ff 00 00 00",
            "49 81 e0 ff 00 00 00", "49 81 e1 ff 00 00 00",
            "49 81 e2 ff 00 00 00", "49 81 e3 ff 00 00 00"}),
      FORM(orRI(R, -2),
           {"48 83 c9 fe", "48 83 ca fe", "48 83 ce fe", "48 83 cf fe",
            "49 83 c8 fe", "49 83 c9 fe", "49 83 ca fe", "49 83 cb fe"}),
      FORM(xorRI(R, 100000),
           {"48 81 f1 a0 86 01 00", "48 81 f2 a0 86 01 00",
            "48 81 f6 a0 86 01 00", "48 81 f7 a0 86 01 00",
            "49 81 f0 a0 86 01 00", "49 81 f1 a0 86 01 00",
            "49 81 f2 a0 86 01 00", "49 81 f3 a0 86 01 00"}),
      FORM(cmpRI(R, -1),
           {"48 83 f9 ff", "48 83 fa ff", "48 83 fe ff", "48 83 ff ff",
            "49 83 f8 ff", "49 83 f9 ff", "49 83 fa ff", "49 83 fb ff"}),
      FORM(imulRI(R, 3),
           {"48 6b c9 03", "48 6b d2 03", "48 6b f6 03", "48 6b ff 03",
            "4d 6b c0 03", "4d 6b c9 03", "4d 6b d2 03", "4d 6b db 03"}),
      FORM(imulRI(R, 1000),
           {"48 69 c9 e8 03 00 00", "48 69 d2 e8 03 00 00",
            "48 69 f6 e8 03 00 00", "48 69 ff e8 03 00 00",
            "4d 69 c0 e8 03 00 00", "4d 69 c9 e8 03 00 00",
            "4d 69 d2 e8 03 00 00", "4d 69 db e8 03 00 00"}),
      FORM(cmpMR(Reg::R13, 8, R),
           {"49 39 4d 08", "49 39 55 08", "49 39 75 08", "49 39 7d 08",
            "4d 39 45 08", "4d 39 4d 08", "4d 39 55 08", "4d 39 5d 08"}),
      FORM(cmpMR(Reg::R14, 0, R),
           {"49 39 0e", "49 39 16", "49 39 36", "49 39 3e", "4d 39 06",
            "4d 39 0e", "4d 39 16", "4d 39 1e"}),
      FORM(testRR(R, R),
           {"48 85 c9", "48 85 d2", "48 85 f6", "48 85 ff", "4d 85 c0",
            "4d 85 c9", "4d 85 d2", "4d 85 db"}),
      FORM(negR(R),
           {"48 f7 d9", "48 f7 da", "48 f7 de", "48 f7 df", "49 f7 d8",
            "49 f7 d9", "49 f7 da", "49 f7 db"}),
      FORM(idivR(R),
           {"48 f7 f9", "48 f7 fa", "48 f7 fe", "48 f7 ff", "49 f7 f8",
            "49 f7 f9", "49 f7 fa", "49 f7 fb"}),
      FORM(shlCl(R),
           {"48 d3 e1", "48 d3 e2", "48 d3 e6", "48 d3 e7", "49 d3 e0",
            "49 d3 e1", "49 d3 e2", "49 d3 e3"}),
      FORM(shrCl(R),
           {"48 d3 e9", "48 d3 ea", "48 d3 ee", "48 d3 ef", "49 d3 e8",
            "49 d3 e9", "49 d3 ea", "49 d3 eb"}),
      FORM(sarCl(R),
           {"48 d3 f9", "48 d3 fa", "48 d3 fe", "48 d3 ff", "49 d3 f8",
            "49 d3 f9", "49 d3 fa", "49 d3 fb"}),
      FORM(shlRI(R, 3),
           {"48 c1 e1 03", "48 c1 e2 03", "48 c1 e6 03", "48 c1 e7 03",
            "49 c1 e0 03", "49 c1 e1 03", "49 c1 e2 03", "49 c1 e3 03"}),
      FORM(shrRI(R, 5),
           {"48 c1 e9 05", "48 c1 ea 05", "48 c1 ee 05", "48 c1 ef 05",
            "49 c1 e8 05", "49 c1 e9 05", "49 c1 ea 05", "49 c1 eb 05"}),
      FORM(sarRI(R, 63),
           {"48 c1 f9 3f", "48 c1 fa 3f", "48 c1 fe 3f", "48 c1 ff 3f",
            "49 c1 f8 3f", "49 c1 f9 3f", "49 c1 fa 3f", "49 c1 fb 3f"}),
  };
#undef FORM
  for (const PoolForm &F : Forms)
    for (size_t I = 0; I < std::size(OperandPool); ++I) {
      X64Emitter E;
      F.Emit(E, OperandPool[I]);
      EXPECT_EQ(hexOf(E.code()), F.Bytes[I])
          << F.Name << " with R = pool register " << I;
    }
}

TEST(X64EmitterTest, FixedFormsEncodeAsAssembled) {
  // The forms the templates emit on pinned registers only.
#define FORM(Call, Bytes)                                                      \
  FixedForm { #Call, [](X64Emitter &E) { E.Call; }, Bytes }
  const FixedForm Forms[] = {
      FORM(addMI(Reg::R13, 16, 3), "49 83 45 10 03"),
      FORM(addMI(Reg::R13, 0, -1000), "49 81 45 00 18 fc ff ff"),
      FORM(cmpMI(Reg::R14, -8, 0), "49 83 7e f8 00"),
      FORM(cmpMI(Reg::R13, 0, 200), "49 81 7d 00 c8 00 00 00"),
      FORM(movMI32(Reg::R14, -8, 5), "49 c7 46 f8 05 00 00 00"),
      FORM(movMI32(Reg::R13, 0, -7), "49 c7 45 00 f9 ff ff ff"),
      FORM(movMI32(Reg::Rbx, 24, 3), "48 c7 43 18 03 00 00 00"),
      FORM(movRM(Reg::Rax, Reg::Rbp, 16), "48 8b 45 10"),
      FORM(movM32I(Reg::Rbp, 64, 12), "c7 45 40 0c 00 00 00"),
      FORM(xorRR(Reg::Rax, Reg::Rax), "48 33 c0"),
      FORM(cqo(), "48 99"),
      FORM(callR(Reg::Rax), "ff d0"),
      FORM(pushR(Reg::R13), "41 55"),
      FORM(popR(Reg::R15), "41 5f"),
      FORM(ret(), "c3"),
  };
#undef FORM
  for (const FixedForm &F : Forms) {
    X64Emitter E;
    F.Emit(E);
    EXPECT_EQ(hexOf(E.code()), F.Bytes) << F.Name;
  }
}

//===----------------------------------------------------------------------===//
// Operands in registers
//===----------------------------------------------------------------------===//

namespace {

/// Opens main with \p Locals locals, i (local 0) and sum (local 1)
/// zeroed, and the head of a loop over i < N; the caller emits the body
/// and closeLoop() the rest, which prints sum.
struct LoopProgram {
  Assembler Asm;
  uint32_t Main;
  MethodBuilder B;
  Label Loop, Done;

  LoopProgram(int32_t N, uint32_t Locals)
      : Main(Asm.declareMethod("main", 0, Locals, false)),
        B(Asm.beginMethod(Main)), Loop(B.newLabel()), Done(B.newLabel()) {
    B.iconst(0);
    B.istore(0);
    B.iconst(0);
    B.istore(1);
    B.bind(Loop);
    B.iload(0);
    B.iconst(N);
    B.branch(Opcode::IfIcmpGe, Done);
  }

  Module closeLoop() {
    B.iinc(0, 1);
    B.branch(Opcode::Goto, Loop);
    B.bind(Done);
    B.iload(1);
    B.emit(Opcode::Iprint);
    B.halt();
    B.finish();
    Asm.setEntry(Main);
    return Asm.build();
  }
};

/// sum += 3 + 5i, but sum - 5i + 3 when i % 32 == 0: a pending read of
/// sum, a constant and a register value sit on the stack across the
/// guard that picks, so its side exit must write all three.
Module stackAcrossGuard(int32_t N) {
  LoopProgram P(N, 2);
  MethodBuilder &B = P.B;
  Label Common = B.newLabel(), Join = B.newLabel();
  B.iload(1);
  B.iconst(3);
  B.iload(0);
  B.iconst(5);
  B.emit(Opcode::Imul);
  B.iload(0);
  B.iconst(31);
  B.emit(Opcode::Iand);
  B.branch(Opcode::IfNe, Common);
  B.emit(Opcode::Isub);
  B.emit(Opcode::Iadd);
  B.branch(Opcode::Goto, Join);
  B.bind(Common);
  B.emit(Opcode::Iadd);
  B.emit(Opcode::Iadd);
  B.bind(Join);
  B.istore(1);
  return P.closeLoop();
}

/// Reads of x (local 2) still on the stack while iinc and istore write
/// x: each read must see x as it was when it was pushed.
Module pendingReadsAcrossWrites(int32_t N) {
  LoopProgram P(N, 3);
  MethodBuilder &B = P.B;
  B.iload(2);
  B.iinc(2, 3);
  B.iload(2);
  B.emit(Opcode::Isub); // -3
  B.iload(2);
  B.iload(0);
  B.istore(2); // x = i under a pending read of x
  B.emit(Opcode::Iadd);
  B.iload(2);
  B.iload(2);
  B.iconst(2);
  B.emit(Opcode::Iadd);
  B.istore(2); // x = i + 2 under a pending read of x
  B.emit(Opcode::Imul);
  B.iload(2);
  B.istore(2); // x = x
  B.iload(1);
  B.emit(Opcode::Iadd);
  B.istore(1);
  return P.closeLoop();
}

/// sum = sum + 1 + 3i, through dup and swap of values held in
/// registers.
Module dupSwapRegisters(int32_t N) {
  LoopProgram P(N, 2);
  MethodBuilder &B = P.B;
  B.iload(0);
  B.iconst(3);
  B.emit(Opcode::Imul); // 3i
  B.emit(Opcode::Dup);
  B.iload(1);
  B.iconst(1);
  B.emit(Opcode::Iadd); // 3i 3i s+1
  B.emit(Opcode::Swap); // 3i s+1 3i
  B.emit(Opcode::Isub); // 3i s+1-3i
  B.emit(Opcode::Swap); // s+1-3i 3i
  B.emit(Opcode::Dup);
  B.emit(Opcode::Iadd);
  B.emit(Opcode::Iadd);
  B.istore(1);
  return P.closeLoop();
}

/// Twelve register values at once, four more than the pool holds, with
/// a guard over the ten deepest, a variable shift and a division among
/// the ops that fold them back into sum.
Module deepExpression(int32_t N) {
  LoopProgram P(N, 2);
  MethodBuilder &B = P.B;
  const Opcode Mix[] = {Opcode::Iadd, Opcode::Imul, Opcode::Ixor};
  auto PushTerm = [&](int32_t K) {
    B.iload(0);
    B.iconst(K + 1);
    B.emit(Mix[K % 3]);
  };
  for (int32_t K = 0; K < 10; ++K)
    PushTerm(K);
  Label Hot = B.newLabel(), Join = B.newLabel();
  B.iload(0);
  B.iconst(15);
  B.emit(Opcode::Iand);
  B.branch(Opcode::IfNe, Hot);
  B.iconst(7);
  B.emit(Opcode::Iadd);
  B.branch(Opcode::Goto, Join);
  B.bind(Hot);
  B.iconst(9);
  B.emit(Opcode::Ixor);
  B.bind(Join);
  PushTerm(10);
  PushTerm(11);
  const Opcode Fold[] = {Opcode::Iadd, Opcode::Isub, Opcode::Ixor,
                         Opcode::Imul, Opcode::Ior,  Opcode::Iand};
  for (int32_t K = 0; K < 11; ++K) {
    if (K == 4) {
      B.iload(0);
      B.iconst(7);
      B.emit(Opcode::Iand);
      B.emit(Opcode::Ishl);
    }
    if (K == 8) {
      B.iconst(7);
      B.emit(Opcode::Idiv);
    }
    B.emit(Fold[K % 6]);
  }
  B.iload(1);
  B.emit(Opcode::Iadd);
  B.istore(1);
  return P.closeLoop();
}

/// sum += a[i] + 2i over an array of Len elements, with no other exit:
/// the load at i == Len traps with sum and 2i beneath its operands.
Module trappingLoadUnderStack(int32_t Len) {
  LoopProgram P(1 << 30, 3);
  MethodBuilder &B = P.B;
  // a is created on the first iteration, as a local of main.
  Label Have = B.newLabel();
  B.iload(0);
  B.branch(Opcode::IfNe, Have);
  B.iconst(Len);
  B.emit(Opcode::NewArray);
  B.istore(2);
  B.bind(Have);
  B.iload(1);
  B.iload(0);
  B.iconst(2);
  B.emit(Opcode::Imul);
  B.iload(2);
  B.iload(0);
  B.emit(Opcode::Iaload);
  B.emit(Opcode::Iadd);
  B.emit(Opcode::Iadd);
  B.istore(1);
  return P.closeLoop();
}

/// main: for i in [0, 20) print rec(3i, i), where rec(n, acc) =
/// n <= 0 ? acc : n + rec(n - 1, acc + 3n) over 40 locals. Both
/// arguments are computed into registers, with a read of n pending
/// beneath them; the locals arena grows near depth 25, so some calls
/// take the slow path with their arguments still in registers.
Module registerArgsOnTheSlowPath() {
  Assembler Asm;
  uint32_t Rec = Asm.declareMethod("rec", 2, 40, true);
  {
    MethodBuilder B = Asm.beginMethod(Rec);
    Label Deeper = B.newLabel();
    B.iload(0);
    B.branch(Opcode::IfGt, Deeper);
    B.iload(1);
    B.iret();
    B.bind(Deeper);
    B.iload(0);
    B.iload(0);
    B.iconst(1);
    B.emit(Opcode::Isub);
    B.iload(1);
    B.iload(0);
    B.iconst(3);
    B.emit(Opcode::Imul);
    B.emit(Opcode::Iadd);
    B.invokestatic(Rec);
    B.emit(Opcode::Iadd);
    B.iret();
    B.finish();
  }
  uint32_t Main = Asm.declareMethod("main", 0, 1, false);
  {
    MethodBuilder B = Asm.beginMethod(Main);
    Label Loop = B.newLabel(), Done = B.newLabel();
    B.iconst(0);
    B.istore(0);
    B.bind(Loop);
    B.iload(0);
    B.iconst(20);
    B.branch(Opcode::IfIcmpGe, Done);
    B.iload(0);
    B.iconst(3);
    B.emit(Opcode::Imul);
    B.iload(0);
    B.invokestatic(Rec);
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

} // namespace

TEST(BackendTest, OperandsHeldAcrossAGuardReachItsSideExit) {
  if (!hostHasJit())
    GTEST_SKIP() << "no template-JIT support on this host";
  SessionRecord S = expectTiersAgree(stackAcrossGuard(20000));
  EXPECT_GT(S.Stats.TraceDispatches, S.Stats.TracesCompleted);
}

TEST(BackendTest, PendingLocalReadsSurviveWritesToTheLocal) {
  if (!hostHasJit())
    GTEST_SKIP() << "no template-JIT support on this host";
  expectTiersAgree(pendingReadsAcrossWrites(20000));
}

TEST(BackendTest, DupAndSwapOfRegisterValues) {
  if (!hostHasJit())
    GTEST_SKIP() << "no template-JIT support on this host";
  expectTiersAgree(dupSwapRegisters(20000));
}

TEST(BackendTest, ExpressionDeeperThanTheRegisterPool) {
  if (!hostHasJit())
    GTEST_SKIP() << "no template-JIT support on this host";
  SessionRecord S = expectTiersAgree(deepExpression(20000));
  EXPECT_GT(S.Stats.TraceDispatches, S.Stats.TracesCompleted);
}

TEST(BackendTest, HeapTrapWithValuesBeneathItsOperands) {
  if (!hostHasJit())
    GTEST_SKIP() << "no template-JIT support on this host";
  SessionRecord S = expectTiersAgree(trappingLoadUnderStack(5000));
  EXPECT_EQ(S.Run.Status, RunStatus::Trapped);
  EXPECT_EQ(S.Run.Trap, TrapKind::ArrayBounds);
}

TEST(BackendTest, RegisterArgumentsTakeTheCallSlowPath) {
  if (!hostHasJit())
    GTEST_SKIP() << "no template-JIT support on this host";
  SessionRecord S = expectNativeMatchesStepped(registerArgsOnTheSlowPath());
  EXPECT_EQ(S.Run.Status, RunStatus::Finished);
  EXPECT_GT(S.Stats.JitFrameOpsHelper, 0u);
}
