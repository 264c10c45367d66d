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

#include "SessionStats.h"
#include "TestPrograms.h"
#include "interp/InstructionInterpreter.h"
#include "runtime/Heap.h"
#include "vm/TraceVM.h"
#include "workloads/Workloads.h"

#include <unistd.h>

#include <algorithm>
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
SessionRecord expectNativeMatchesStepped(const Module &M) {
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
  EXPECT_GT(Native.Stats.JitFrameOpsInline, 0u);
  EXPECT_EQ(Stepped.Stats.JitFrameOpsInline, 0u);
  EXPECT_EQ(Stepped.Stats.JitFrameOpsHelper, 0u);
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
