//===- tests/tracevm_test.cpp - The trace-dispatching VM ------------------===//

#include "vm/TraceVM.h"

#include "SessionStats.h"
#include "TestPrograms.h"
#include "analysis/Analysis.h"
#include "fuzz/BtraceAudit.h"
#include "interp/InstructionInterpreter.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <set>

using namespace jtc;

namespace {

VmOptions defaultOptions() {
  return VmOptions().startStateDelay(64).completionThreshold(0.97);
}

} // namespace

TEST(TraceVmTest, SemanticsUnchangedByTraceDispatch) {
  // The trace cache is an execution accelerator; observable behaviour
  // must be identical to the plain interpreter.
  const Module Programs[] = {
      testprog::countingLoop(5000), testprog::recursiveFactorial(10),
      testprog::virtualDispatch(),  testprog::switchProgram(),
      testprog::arraySquares(64),   testprog::hotLoop(20000),
  };
  for (const Module &M : Programs) {
    Machine Plain(M);
    RunResult R1 = runInstructions(Plain);
    PreparedModule PM(M);
    TraceVM VM(PM, defaultOptions());
    RunResult R2 = VM.run();
    EXPECT_EQ(R1.Status, R2.Status);
    EXPECT_EQ(Plain.output(), VM.machine().output());
    EXPECT_EQ(R1.Instructions, R2.Instructions);
  }
}

TEST(TraceVmTest, HotLoopGetsTraced) {
  Module M = testprog::hotLoop(50000);
  PreparedModule PM(M);
  TraceVM VM(PM, defaultOptions());
  VM.run();
  const VmStats &S = VM.stats();
  EXPECT_GT(S.TraceDispatches, 0u);
  EXPECT_GT(S.TracesCompleted, 0u);
  EXPECT_GT(S.completedCoverage(), 0.5)
      << "a hot biased loop should mostly run from the trace cache";
  EXPECT_GT(S.avgCompletedTraceLength(), 2.0);
}

TEST(TraceVmTest, StatsIdentitiesHold) {
  Module M = testprog::hotLoop(50000);
  PreparedModule PM(M);
  TraceVM VM(PM, defaultOptions());
  RunResult R = VM.run();
  const VmStats &S = VM.stats();

  EXPECT_EQ(R.Instructions, S.Instructions);
  EXPECT_LE(S.TracesCompleted, S.TraceDispatches);
  EXPECT_LE(S.BlocksInCompletedTraces, S.BlocksInTraces);
  EXPECT_LE(S.InstructionsInCompletedTraces, S.InstructionsInTraces);
  EXPECT_LE(S.InstructionsInTraces, S.Instructions);
  EXPECT_LE(S.BlocksInTraces, S.BlocksExecuted);
  EXPECT_LE(S.completedCoverage(), 1.0);
  EXPECT_LE(S.traceCoverage(), 1.0);
  EXPECT_GE(S.completionRate(), 0.0);
  EXPECT_LE(S.completionRate(), 1.0);
  // Every executed block was either dispatched individually or ran under
  // a trace dispatch.
  EXPECT_EQ(S.BlocksExecuted, S.BlockDispatches + S.BlocksInTraces);
  EXPECT_EQ(R.Dispatches, S.BlockDispatches + S.TraceDispatches);
}

TEST(TraceVmTest, TraceDispatchReducesDispatchCount) {
  Module M = testprog::hotLoop(50000);
  PreparedModule PM(M);

  TraceVM V1(PM, defaultOptions().traces(false));
  RunResult R1 = V1.run();

  TraceVM V2(PM, defaultOptions());
  RunResult R2 = V2.run();

  EXPECT_EQ(R1.Instructions, R2.Instructions);
  EXPECT_LT(R2.Dispatches, R1.Dispatches)
      << "dispatching whole traces must reduce the dispatch count";
}

TEST(TraceVmTest, ProfilingDisabledMeansNoGraphNoTraces) {
  Module M = testprog::hotLoop(20000);
  PreparedModule PM(M);
  TraceVM VM(PM, defaultOptions().profiling(false));
  VM.run();
  const VmStats &S = VM.stats();
  EXPECT_EQ(S.Hooks, 0u);
  EXPECT_EQ(S.Signals, 0u);
  EXPECT_EQ(S.TraceDispatches, 0u);
  EXPECT_EQ(S.GraphNodes, 0u);
}

TEST(TraceVmTest, TracesDisabledStillProfiles) {
  Module M = testprog::hotLoop(20000);
  PreparedModule PM(M);
  TraceVM VM(PM, defaultOptions().traces(false));
  VM.run();
  const VmStats &S = VM.stats();
  EXPECT_GT(S.Hooks, 0u);
  EXPECT_GT(S.GraphNodes, 0u);
  EXPECT_EQ(S.TraceDispatches, 0u);
  EXPECT_EQ(S.TracesConstructed, 0u);
}

TEST(TraceVmTest, GraphArenaWasteIsBounded) {
  // The graph's list arena hands a block a list outgrew to the next list
  // of that size, so at exit it holds at most twice the live lists
  // (capacities round up to powers of two) plus one partly filled chunk.
  const WorkloadInfo *W = findWorkload("soot");
  ASSERT_NE(W, nullptr);
  Module M = W->Build(W->DefaultScale);
  PreparedModule PM(M);
  TraceVM VM(PM, defaultOptions());
  VM.run();
  const BranchCorrelationGraph &G = VM.graph();
  size_t Live = 0;
  for (NodeId N = 0; N < G.numNodes(); ++N)
    Live += G.node(N).correlations().size_bytes() +
            G.node(N).predecessors().size_bytes();
  EXPECT_EQ(VM.stats().GraphArenaBytes, G.arenaBytes());
  EXPECT_GT(Live, 0u);
  EXPECT_LE(G.arenaBytes(), 2 * Live + ListArena::ChunkBytes)
      << "live list bytes " << Live;
}

TEST(TraceVmTest, HooksOncePerDispatchNotPerBlock) {
  // Paper section 4.1.2: trace dispatch executes a single profiling
  // statement; inlined blocks carry none.
  Module M = testprog::hotLoop(50000);
  PreparedModule PM(M);
  TraceVM VM(PM, defaultOptions());
  VM.run();
  const VmStats &S = VM.stats();
  EXPECT_LT(S.Hooks, S.BlocksExecuted)
      << "in-trace blocks must not run profiler hooks";
  EXPECT_LE(S.Hooks, S.BlockDispatches + S.TraceDispatches);
}

TEST(TraceVmTest, PartialTraceExecutionsAreCounted) {
  // The hot loop's rare path (1/256) diverges from the loop trace, so
  // some trace executions must end early.
  Module M = testprog::hotLoop(200000);
  PreparedModule PM(M);
  TraceVM VM(PM, defaultOptions());
  VM.run();
  const VmStats &S = VM.stats();
  EXPECT_GT(S.TraceDispatches, S.TracesCompleted)
      << "rare paths should cause some partial executions";
  EXPECT_GE(S.completionRate(), 0.9);
}

TEST(TraceVmTest, ContextFollowsTraceDivergence) {
  // The divergent transition that exits a trace is not counted, but the
  // profiler context must still move to the pair that executed: the next
  // hooked successor belongs under N(Cur, Next), not under the trace's
  // last pair, which would invent a block pair that never ran.
  Module M = testprog::hotLoop(200000);
  PreparedModule PM(M);
  TraceVM VM(PM, defaultOptions());
  fuzz::BtraceRecorder Rec(PM, VM);
  Rec.attach(VM);
  VM.run();
  ASSERT_GT(VM.stats().TraceDispatches, VM.stats().TracesCompleted)
      << "the rare path must diverge from the loop trace";
  std::vector<fuzz::Violation> Vs =
      fuzz::checkContextsExecuted(VM.graph(), Rec.blocks());
  EXPECT_TRUE(Vs.empty()) << fuzz::formatViolations(Vs);
}

TEST(TraceVmTest, InstructionBudgetStopsRun) {
  Module M = testprog::countingLoop(1000000000);
  PreparedModule PM(M);
  TraceVM VM(PM, defaultOptions().maxInstructions(50000));
  RunResult R = VM.run();
  EXPECT_EQ(R.Status, RunStatus::BudgetExhausted);
  EXPECT_GE(R.Instructions, 50000u);
  EXPECT_LT(R.Instructions, 51000u);
}

TEST(TraceVmTest, TrapInsideTraceSurfaces) {
  // A loop that eventually divides by zero: i counts down to 0 and the
  // program divides by i each iteration.
  Assembler Asm;
  uint32_t Main = Asm.declareMethod("main", 0, 2, false);
  MethodBuilder B = Asm.beginMethod(Main);
  Label Loop = B.newLabel(), Done = B.newLabel();
  B.iconst(30000);
  B.istore(0);
  B.bind(Loop);
  B.iload(0);
  B.branch(Opcode::IfLt, Done); // loops until i < 0, but traps at i == 0
  B.iconst(1000);
  B.iload(0);
  B.emit(Opcode::Idiv);
  B.istore(1);
  B.iinc(0, -1);
  B.branch(Opcode::Goto, Loop);
  B.bind(Done);
  B.halt();
  B.finish();
  Asm.setEntry(Main);
  Module M = Asm.build();

  PreparedModule PM(M);
  TraceVM VM(PM, defaultOptions());
  RunResult R = VM.run();
  EXPECT_EQ(R.Status, RunStatus::Trapped);
  EXPECT_EQ(R.Trap, TrapKind::DivideByZero);
}

TEST(TraceVmTest, DeterministicAcrossRuns) {
  Module M = testprog::hotLoop(80000);
  PreparedModule PM(M);
  TraceVM V1(PM, defaultOptions());
  V1.run();
  TraceVM V2(PM, defaultOptions());
  V2.run();
  const VmStats &A = V1.stats(), &B = V2.stats();
  EXPECT_EQ(A.Instructions, B.Instructions);
  EXPECT_EQ(A.TraceDispatches, B.TraceDispatches);
  EXPECT_EQ(A.TracesCompleted, B.TracesCompleted);
  EXPECT_EQ(A.Signals, B.Signals);
  EXPECT_EQ(A.TracesConstructed, B.TracesConstructed);
}

TEST(TraceVmTest, RandomProgramsKeepSemanticsUnderTracing) {
  for (uint64_t Seed = 500; Seed < 540; ++Seed) {
    testprog::RandomProgramBuilder Gen(Seed);
    Module M = Gen.build();
    Machine Plain(M);
    RunResult R1 = runInstructions(Plain, 10000000);
    PreparedModule PM(M);
    TraceVM VM(PM, defaultOptions()
                       .startStateDelay(1) // trace aggressively
                       .maxInstructions(10000000));
    RunResult R2 = VM.run();
    EXPECT_EQ(R1.Status, R2.Status) << "seed " << Seed;
    EXPECT_EQ(Plain.output(), VM.machine().output()) << "seed " << Seed;
    EXPECT_EQ(R1.Instructions, R2.Instructions) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Single-shot contract
//===----------------------------------------------------------------------===//

TEST(TraceVmTest, RunIsSingleShot) {
  Module M = testprog::countingLoop(100);
  PreparedModule PM(M);
  TraceVM VM(PM, defaultOptions());
  RunResult First = VM.run();
  EXPECT_EQ(First.Status, RunStatus::Finished);
#ifdef NDEBUG
  // Release builds turn reuse into a trap instead of executing anything.
  RunResult Again = VM.run();
  EXPECT_EQ(Again.Status, RunStatus::Trapped);
  EXPECT_EQ(Again.Trap, TrapKind::VmReuse);
  EXPECT_EQ(Again.Instructions, 0u);
  // The first run's results are untouched.
  EXPECT_EQ(VM.stats().Instructions, First.Instructions);
#else
  EXPECT_DEATH(VM.run(), "single-shot");
#endif
}

//===----------------------------------------------------------------------===//
// Warm handoff seeds
//===----------------------------------------------------------------------===//

TEST(TraceVmTest, SeedRoundTripPreservesSemanticsAndSkipsWarmup) {
  Module M = testprog::hotLoop(50000);
  PreparedModule PM(M);

  TraceVM Donor(PM, defaultOptions());
  RunResult DonorRun = Donor.run();
  ASSERT_EQ(DonorRun.Status, RunStatus::Finished);
  ASSERT_GT(Donor.stats().LiveTraces, 0u);
  VmSeed Seed = Donor.exportSeed();
  EXPECT_FALSE(Seed.empty());
  EXPECT_EQ(Seed.Traces.size(), Donor.stats().LiveTraces);

  TraceVM Warm(PM, defaultOptions());
  Warm.importSeed(Seed);
  RunResult WarmRun = Warm.run();

  // Semantics are untouched by seeding.
  EXPECT_EQ(WarmRun.Status, DonorRun.Status);
  EXPECT_EQ(WarmRun.Instructions, DonorRun.Instructions);
  EXPECT_EQ(Warm.machine().output(), Donor.machine().output());

  // The warmup is gone: the donor's traces are installed (not rebuilt),
  // dispatched from the start, and the already-acknowledged profile
  // emits no state-change signals on this stationary workload.
  EXPECT_EQ(Warm.stats().TracesSeeded, Donor.stats().LiveTraces);
  EXPECT_EQ(Warm.stats().TracesConstructed, 0u);
  EXPECT_GT(Warm.stats().TraceDispatches, 0u);
  EXPECT_LT(Warm.stats().Signals, Donor.stats().Signals);
  // More of the run executes inside traces than the cold session managed.
  EXPECT_GE(Warm.stats().traceCoverage(), Donor.stats().traceCoverage());
}

TEST(TraceVmTest, SeedIgnoredWhenComponentsDisabled) {
  Module M = testprog::hotLoop(20000);
  PreparedModule PM(M);
  TraceVM Donor(PM, defaultOptions());
  Donor.run();
  VmSeed Seed = Donor.exportSeed();

  TraceVM NoProfile(PM, defaultOptions().profiling(false));
  NoProfile.importSeed(Seed);
  RunResult R = NoProfile.run();
  EXPECT_EQ(R.Status, RunStatus::Finished);
  EXPECT_EQ(NoProfile.stats().TracesSeeded, 0u);
  EXPECT_EQ(NoProfile.stats().GraphNodes, 0u);

  TraceVM NoTraces(PM, defaultOptions().traces(false));
  NoTraces.importSeed(Seed);
  RunResult R2 = NoTraces.run();
  EXPECT_EQ(R2.Status, RunStatus::Finished);
  EXPECT_EQ(NoTraces.stats().TracesSeeded, 0u);
  EXPECT_GT(NoTraces.stats().GraphNodes, 0u);
}

TEST(TraceVmTest, SecondSessionComputesNoFacts) {
  // The static analysis belongs to the PreparedModule: the first session
  // computes the facts of the methods its promoted traces pass through,
  // and later sessions over the module, cold or seeded, find them
  // computed.
  if (!backend::jitSupportedHost())
    GTEST_SKIP() << "no template-JIT support on this host";
  const WorkloadInfo *W = findWorkload("raytrace");
  ASSERT_NE(W, nullptr);
  Module M = W->Build(std::max(1u, W->DefaultScale / 10));
  PreparedModule PM(M);
  const analysis::ModuleAnalysis &Facts = PM.facts();
  EXPECT_EQ(Facts.methodsComputed(), 0u);

  TraceVM First(PM, testprog::promoteAll());
  First.run();
  uint32_t Computed = Facts.methodsComputed();
  EXPECT_GT(First.stats().TracesValidated, 0u);
  EXPECT_GT(Computed, 0u);
  EXPECT_LT(Computed, Facts.numMethods());

  TraceVM Second(PM, testprog::promoteAll());
  Second.run();
  EXPECT_EQ(Facts.methodsComputed(), Computed);
  EXPECT_EQ(Second.stats().digest(), First.stats().digest());

  TraceVM Seeded(PM, testprog::promoteAll());
  Seeded.importSeed(First.exportSeed());
  Seeded.run();
  EXPECT_GT(Seeded.stats().TracesValidated, 0u);
  EXPECT_EQ(Facts.methodsComputed(), Computed);
}

TEST(TraceVmTest, SecondSessionProvesNothing) {
  // Each trace shape's validation verdict and check-elision facts travel
  // with its native code, which belongs to the PreparedModule: a second
  // session over the module finds every shape it promotes already proved
  // and compiled, and reports exactly what the first one did.
  if (!backend::jitSupportedHost())
    GTEST_SKIP() << "no template-JIT support on this host";
  const uint64_t Fingerprint = OptConfig().fingerprint();
  for (const WorkloadInfo &W : allWorkloads()) {
    SCOPED_TRACE(W.Name);
    Module M = W.Build(std::max(1u, W.DefaultScale / 20));
    PreparedModule PM(M);
    const backend::ModuleCode &Code = backend::moduleCode(PM);
    TraceVM First(PM, testprog::promoteAll());
    First.run();
    const size_t Installs = Code.installs();
    ASSERT_GT(First.stats().TracesValidated, 0u);
    EXPECT_GT(Installs, 0u);
    // A shape is proved once, when it is compiled.
    EXPECT_EQ(First.stats().TracesValidated,
              Installs + First.stats().JitCodeReused);

    TraceVM Second(PM, testprog::promoteAll());
    Second.run();
    EXPECT_EQ(Code.installs(), Installs);
    EXPECT_EQ(testprog::statsDiff(First.stats(), Second.stats()), "");
    // Every proof it credits came with the module's code.
    EXPECT_EQ(Second.stats().TraceValidationRejects, 0u);
    EXPECT_EQ(Second.stats().JitCodeReused, Second.stats().TracesValidated);

    // Traces seeded from the first session are shapes it built. The
    // seeded session proves and installs only the shapes the module
    // lacks, and some seeded ones it holds recur.
    std::set<std::vector<BlockId>> Held;
    for (const Trace &T : First.traceCache().traces())
      if (Code.find({T.Blocks, Fingerprint}))
        Held.insert(T.Blocks);
    VmSeed Seed = First.exportSeed();
    std::set<std::vector<BlockId>> SeededShapes;
    for (const TraceCache::TraceSeed &T : Seed.Traces)
      SeededShapes.insert(T.Blocks);
    TraceVM Seeded(PM, testprog::promoteAll().telemetry(true).telemetryCapacity(
                           1u << 22));
    Seeded.importSeed(Seed);
    Seeded.run();
    ASSERT_GT(Seeded.stats().TracesSeeded, 0u);
    EXPECT_GT(Seeded.stats().JitCodeReused, 0u);
#ifdef JTC_TELEMETRY
    ASSERT_EQ(Seeded.events().dropped(), 0u);
    std::set<std::vector<BlockId>> Promoted;
    Seeded.events().forEach([&](const Event &E) {
      if (E.Kind == EventKind::TraceValidated)
        Promoted.insert(Seeded.traceCache().traces()[E.Id].Blocks);
    });
    uint64_t New = 0, SeededRecurred = 0;
    for (const std::vector<BlockId> &B : Promoted) {
      New += !Held.count(B);
      SeededRecurred += Held.count(B) && SeededShapes.count(B);
    }
    EXPECT_GT(SeededRecurred, 0u);
    // One install, so one proof, per shape the module lacked.
    EXPECT_EQ(Code.installs() - Installs, New);
#endif

    // The first session is any first session.
    PreparedModule FreshPM(M);
    TraceVM Fresh(FreshPM, testprog::promoteAll());
    Fresh.run();
    EXPECT_EQ(testprog::statsDiff(First.stats(), Fresh.stats()), "");
    EXPECT_EQ(First.stats().JitCodeReused, Fresh.stats().JitCodeReused);
    EXPECT_EQ(backend::moduleCode(FreshPM).installs(), Installs);
  }
}

TEST(TraceVmTest, OnlyPromotionProvesAndElides) {
  // Check elision saves something only in native code, so the interp
  // tier neither validates nor annotates a trace and runs every check;
  // the JIT tier proves a trace when it promotes it, and at most once.
  uint64_t Validated = 0, Elided = 0;
  for (const WorkloadInfo &W : allWorkloads()) {
    SCOPED_TRACE(W.Name);
    Module M = W.Build(std::max(1u, W.DefaultScale / 20));
    PreparedModule PM(M);
    TraceVM Interp(PM, VmOptions().backend(backend::BackendKind::Interp));
    Interp.run();
    const VmStats &S = Interp.stats();
    ASSERT_GT(S.TracesConstructed, 0u);
    EXPECT_EQ(S.TracesValidated, 0u);
    EXPECT_EQ(S.MemElisionSites, 0u);
    EXPECT_EQ(S.MemChecksElided, 0u);
    EXPECT_EQ(backend::moduleCode(PM).installs(), 0u);
    if (!backend::jitSupportedHost())
      continue;

    // The default promotion threshold, with every event kept.
    TraceVM Jit(PM, VmOptions()
                        .backend(backend::BackendKind::Jit)
                        .telemetry(true)
                        .telemetryCapacity(1u << 22));
    Jit.run();
    const VmStats &J = Jit.stats();
    EXPECT_EQ(J.digest(), S.digest());
    // Every promotion lowers, so each one is proved and gets code.
    EXPECT_EQ(J.TracesValidated, J.TracesJitCompiled);
    Validated += J.TracesValidated;
    Elided += J.MemChecksElided;
#ifdef JTC_TELEMETRY
    ASSERT_EQ(Jit.events().dropped(), 0u);
    std::set<TraceId> Proved;
    uint64_t Verdicts = 0;
    Jit.events().forEach([&](const Event &E) {
      if (E.Kind != EventKind::TraceValidated &&
          E.Kind != EventKind::TraceValidationRejected)
        return;
      ++Verdicts;
      EXPECT_TRUE(Proved.insert(E.Id).second)
          << "trace " << E.Id << " validated twice";
    });
    EXPECT_EQ(Verdicts, J.TracesValidated);
#endif
  }
  if (backend::jitSupportedHost()) {
    EXPECT_GT(Validated, 0u);
    EXPECT_GT(Elided, 0u);
  }
}
