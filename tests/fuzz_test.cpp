//===- tests/fuzz_test.cpp - Differential fuzzing subsystem ---------------===//
///
/// Tests for src/fuzz/: the coverage-directed program generator, the
/// cross-engine oracle and its heap digest, the invariant checker (via
/// deliberate fault injection -- the oracle must catch a broken trace
/// cache), and the delta-debugging minimizer.
///
//===----------------------------------------------------------------------===//

#include "fuzz/BtraceAudit.h"
#include "fuzz/Fuzzer.h"
#include "fuzz/Invariants.h"
#include "fuzz/Minimizer.h"
#include "fuzz/Oracle.h"
#include "fuzz/ProgramGen.h"
#include "fuzz/ValidateAudit.h"

#include "SessionStats.h"
#include "TestPrograms.h"
#include "backend/TraceIR.h"
#include "bytecode/Verifier.h"
#include "interp/InstructionInterpreter.h"
#include "text/AsmParser.h"
#include "text/AsmWriter.h"
#include "vm/TraceVM.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace jtc;
using namespace jtc::fuzz;

//===----------------------------------------------------------------------===//
// Program generator
//===----------------------------------------------------------------------===//

TEST(ProgramGenTest, GeneratedProgramsAlwaysVerify) {
  GenConfig Config;
  Config.Features.Traps = true;
  for (uint64_t Seed = 1; Seed <= 60; ++Seed) {
    RandomProgramBuilder Gen(Seed, Config);
    Module M = Gen.build();
    EXPECT_TRUE(isValid(M)) << "seed " << Seed << ":\n"
                            << formatErrors(verifyModule(M));
  }
}

TEST(ProgramGenTest, DeterministicForEqualSeedsAndCoverage) {
  GenConfig Config;
  Config.Features.Traps = true;
  RandomProgramBuilder A(99, Config), B(99, Config);
  EXPECT_EQ(moduleToString(A.build()), moduleToString(B.build()));
}

TEST(ProgramGenTest, TrapFreeProgramsAlwaysFinish) {
  // With Traps off the generator's construction guarantees totality:
  // every program terminates cleanly within a modest budget.
  for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
    RandomProgramBuilder Gen(Seed);
    Module M = Gen.build();
    Machine Mach(M);
    RunResult R = runInstructions(Mach, 20'000'000);
    EXPECT_EQ(R.Status, RunStatus::Finished) << "seed " << Seed;
  }
}

TEST(ProgramGenTest, FeatureGatesAreRespected) {
  GenConfig Config;
  Config.Features.Switches = false;
  Config.Features.VirtualCalls = false;
  Config.Features.Fields = false;
  Config.Features.Arrays = false;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    RandomProgramBuilder Gen(Seed, Config);
    Module M = Gen.build();
    EXPECT_TRUE(M.Classes.empty());
    for (const Method &Mth : M.Methods)
      for (const Instruction &I : Mth.Code) {
        EXPECT_NE(I.Op, Opcode::Tableswitch);
        EXPECT_NE(I.Op, Opcode::InvokeVirtual);
        EXPECT_NE(I.Op, Opcode::NewArray);
        EXPECT_NE(I.Op, Opcode::New);
      }
  }
}

TEST(ProgramGenTest, CoverageDirectionSpreadsStatementKinds) {
  GenConfig Config;
  Config.Features.Traps = true;
  FeatureCoverage Cov;
  for (uint64_t Seed = 1; Seed <= 150; ++Seed) {
    RandomProgramBuilder Gen(Seed, Config, &Cov);
    Gen.build();
  }
  uint64_t Min = ~0ull, Max = 0;
  for (unsigned I = 0; I < NumStmtKinds; ++I) {
    Min = std::min(Min, Cov.Counts[I]);
    Max = std::max(Max, Cov.Counts[I]);
  }
  EXPECT_GT(Min, 0u) << "every statement kind must be exercised";
  // Inverse-frequency weighting keeps the histogram roughly level; the
  // bound is loose because eligibility constraints skew the draw.
  EXPECT_LE(Max, 4 * Min) << "coverage direction failed to balance kinds";
}

//===----------------------------------------------------------------------===//
// Heap digest
//===----------------------------------------------------------------------===//

TEST(HeapDigestTest, EqualRunsProduceEqualDigests) {
  Module M = testprog::virtualDispatch();
  Machine A(M), B(M);
  runInstructions(A);
  runInstructions(B);
  EXPECT_EQ(fuzz::heapDigest(A.heap()), fuzz::heapDigest(B.heap()));
  EXPECT_NE(fuzz::heapDigest(A.heap()), fuzz::heapDigest(Machine(M).heap()));
}

TEST(HeapDigestTest, DistinguishesDifferentFinalHeaps) {
  Module M4 = testprog::arraySquares(4), M5 = testprog::arraySquares(5);
  Machine A(M4), B(M5);
  runInstructions(A);
  runInstructions(B);
  EXPECT_NE(fuzz::heapDigest(A.heap()), fuzz::heapDigest(B.heap()));
}

//===----------------------------------------------------------------------===//
// Oracle: agreement on correct engines
//===----------------------------------------------------------------------===//

TEST(OracleTest, GeneratedProgramsProduceNoFindings) {
  GenConfig GC;
  GC.Features.Traps = true;
  OracleConfig OC;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    RandomProgramBuilder Gen(Seed, GC);
    Module M = Gen.build();
    OracleResult R = runOracle(M, OC);
    EXPECT_TRUE(R.Ok) << "seed " << Seed << ":\n" << formatFindings(R.Findings);
  }
}

TEST(OracleTest, HandBuiltProgramsProduceNoFindings) {
  OracleConfig OC;
  for (const Module &M :
       {testprog::countingLoop(5000), testprog::recursiveFactorial(12),
        testprog::virtualDispatch(), testprog::switchProgram(),
        testprog::arraySquares(64), testprog::hotLoop(100000),
        testprog::divideByZero()}) {
    OracleResult R = runOracle(M, OC);
    EXPECT_TRUE(R.Ok) << formatFindings(R.Findings);
  }
}

TEST(OracleTest, InvalidModuleIsRejectedNotExecuted) {
  Module M; // No entry method.
  M.EntryMethod = 7;
  OracleResult R = runOracle(M, OracleConfig{});
  ASSERT_FALSE(R.Ok);
  ASSERT_EQ(R.Findings.size(), 1u);
  EXPECT_EQ(R.Findings[0].Rule, "invalid-module");
}

TEST(OracleTest, BudgetExhaustedReferenceSkipsComparison) {
  OracleConfig OC;
  OC.MaxInstructions = 100; // hotLoop needs far more.
  OracleResult R = runOracle(testprog::hotLoop(100000), OC);
  EXPECT_TRUE(R.Skipped);
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.RefStatus, RunStatus::BudgetExhausted);
}

//===----------------------------------------------------------------------===//
// Fault injection: the oracle must catch a deliberately broken cache
//===----------------------------------------------------------------------===//

namespace {

/// Campaign tuned for the acceptance bound: the injected fault must be
/// detected within 200 iterations.
FuzzOptions faultCampaign(CacheFault Fault) {
  FuzzOptions Opts;
  Opts.Seed = 1;
  Opts.Iterations = 200;
  Opts.Minimize = false;
  Opts.MaxFailures = 1;
  Opts.Gen.Features.Traps = true;
  Opts.Oracle.Fault = Fault;
  return Opts;
}

bool anyFindingWithRule(const FuzzReport &R, const std::string &Rule) {
  for (const FuzzFailure &F : R.Failures)
    for (const OracleFinding &Fd : F.Findings)
      if (Fd.Rule == Rule)
        return true;
  return false;
}

} // namespace

TEST(FaultInjectionTest, SkipInvalidationIsCaughtWithin200Iterations) {
  FuzzReport R = runFuzzer(faultCampaign(CacheFault::SkipInvalidation));
  ASSERT_FALSE(R.Failures.empty())
      << "a cache that forgets entry-map erasure must be detected";
  EXPECT_LE(R.Failures[0].Iteration, 200u);
  EXPECT_TRUE(anyFindingWithRule(R, "entry-map-live"))
      << formatFindings(R.Failures[0].Findings);
}

TEST(ContextInvariantTest, EveryWorkloadProfilesOnlyExecutedContexts) {
  // Trace divergences are the one place the profiler's context can fall
  // out of step with execution; soot and mpegaudio diverge most.
  for (const WorkloadInfo &W : allWorkloads()) {
    Module M = W.Build(W.DefaultScale);
    PreparedModule PM(M);
    TraceVM VM(PM, VmOptions());
    BtraceRecorder Rec(PM, VM);
    Rec.attach(VM);
    ASSERT_EQ(VM.run().Status, RunStatus::Finished) << W.Name;
    std::vector<Violation> Vs =
        checkContextsExecuted(VM.graph(), Rec.blocks());
    EXPECT_TRUE(Vs.empty()) << W.Name << ":\n" << formatViolations(Vs);
  }
}

TEST(ValidateAuditTest, ReusedElisionsAreCheckedAgainstRecomputedOnes) {
  // Clean module code passes the audit on the session that compiled it
  // and on the one that reuses it. Code held with wrong elision facts for
  // a session's shapes is caught.
  if (!backend::jitSupportedHost())
    GTEST_SKIP() << "no template-JIT support on this host";
  const WorkloadInfo *W = findWorkload("javac");
  ASSERT_NE(W, nullptr);
  Module M = W->Build(std::max(1u, W->DefaultScale / 20));
  const VmOptions Opts = testprog::promoteAll();
  PreparedModule PM(M);
  TraceVM First(PM, Opts);
  First.run();
  TraceVM Second(PM, Opts);
  Second.run();
  ASSERT_GT(Second.stats().JitCodeReused, 0u);
  EXPECT_TRUE(checkValidateAudit(PM, First).empty());
  EXPECT_TRUE(checkValidateAudit(PM, Second).empty());

  // Poison a second module with the first one's code for every shape
  // whose elisions are not empty, but with the facts dropped from its
  // proof.
  PreparedModule Poisoned(M);
  const backend::ModuleCode &Held = backend::moduleCode(PM);
  backend::ModuleCode &Target = backend::moduleCode(Poisoned);
  const uint64_t Config = Opts.optConfig().fingerprint();
  unsigned Shapes = 0;
  for (const Trace &T : First.traceCache().traces()) {
    for (const auto &[Key, C] : Held.entries(T.Blocks, Config)) {
      if (C->Proof.MemFacts.empty() || Target.find(*Key))
        continue;
      backend::CompiledTrace Wrong = *C;
      Wrong.Proof.MemFacts.clear();
      Target.publish(*Key, std::move(Wrong));
      ++Shapes;
    }
  }
  ASSERT_GT(Shapes, 0u);
  std::vector<Violation> Vs = checkValidateAudit(Poisoned, First);
  ASSERT_FALSE(Vs.empty());
  for (const Violation &V : Vs)
    EXPECT_EQ(V.Rule, "validate-elision-incoherent") << V.Detail;
}

// Retirement detection audits the telemetry event stream, so these two
// scenarios need the instrumentation compiled in.
#ifdef JTC_TELEMETRY

TEST(FaultInjectionTest, SkipRetirementIsCaughtWithin200Iterations) {
  FuzzReport R = runFuzzer(faultCampaign(CacheFault::SkipRetirement));
  ASSERT_FALSE(R.Failures.empty())
      << "a cache that never retires under-performing traces must be "
         "detected";
  EXPECT_LE(R.Failures[0].Iteration, 200u);
  EXPECT_TRUE(anyFindingWithRule(R, "retirement-law"))
      << formatFindings(R.Failures[0].Findings);
}

namespace {

/// A bounded loop inside a helper that straight-line code calls over and
/// over. At completion threshold 1.0 the unrolled loop trace is built
/// from counters that have only ever seen the back edge taken, yet it
/// fails once per call at the loop exit -- and because the divergent exit
/// transition is deliberately never profiled (and the caller is acyclic,
/// so no surrounding trace invalidates the fragment), rebuilds keep
/// reproducing the same trace. Observed-completion retirement is the only
/// mechanism that can adapt.
Module retirementProbe(int32_t Calls, int32_t Trip) {
  Assembler Asm;
  uint32_t Helper = Asm.declareMethod("helper", 0, 1, true);
  {
    MethodBuilder B = Asm.beginMethod(Helper);
    Label Loop = B.newLabel(), Done = B.newLabel();
    B.iconst(0);
    B.istore(0);
    B.bind(Loop);
    B.iload(0);
    B.iconst(Trip);
    B.branch(Opcode::IfIcmpGe, Done);
    B.iinc(0, 1);
    B.branch(Opcode::Goto, Loop);
    B.bind(Done);
    B.iload(0);
    B.iret();
    B.finish();
  }
  uint32_t Main = Asm.declareMethod("main", 0, 0, false);
  {
    MethodBuilder B = Asm.beginMethod(Main);
    for (int32_t I = 0; I < Calls; ++I) {
      B.invokestatic(Helper);
      B.emit(Opcode::Iprint);
    }
    B.halt();
    B.finish();
  }
  Asm.setEntry(Main);
  return Asm.build();
}

/// An aggressive trace config with \p Fault injected.
VmOptions probeOptions(CacheFault Fault) {
  return VmOptions()
      .completionThreshold(1.0)
      .startStateDelay(1)
      .decayInterval(32)
      .telemetry(true)
      .telemetryCapacity(1u << 18)
      .cacheFault(Fault);
}

} // namespace

/// The probe module and its prepared form are shared across every case:
/// SetUpTestSuite builds them once instead of each test rebuilding them,
/// and the determinism case below pins the property that makes the
/// sharing (and `ctest -j`) safe -- runs against the shared
/// PreparedModule do not influence one another.
class RetirementProbeTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    M = new Module(retirementProbe(16, 50));
    PM = new PreparedModule(*M);
  }
  static void TearDownTestSuite() {
    delete PM;
    PM = nullptr;
    delete M;
    M = nullptr;
  }

  static Module *M;
  static PreparedModule *PM;
};

Module *RetirementProbeTest::M = nullptr;
PreparedModule *RetirementProbeTest::PM = nullptr;

TEST_F(RetirementProbeTest, RetirementFiresOnBehaviourShift) {
  TraceVM Good(*PM, probeOptions(CacheFault::None));
  RunStatus S = Good.run().Status;
  EXPECT_GT(Good.stats().TracesRetired, 0u)
      << "the healthy cache must retire the warmup trace once its "
         "observed completion collapses";
  EXPECT_TRUE(checkTraceVm(Good, S).empty())
      << formatViolations(checkTraceVm(Good, S));
}

TEST_F(RetirementProbeTest, SkipRetirementFaultSuppressesItAndIsFlagged) {
  TraceVM Bad(*PM, probeOptions(CacheFault::SkipRetirement));
  RunStatus S = Bad.run().Status;
  EXPECT_EQ(Bad.stats().TracesRetired, 0u);
  std::vector<Violation> Vs = checkTraceVm(Bad, S);
  bool SawRetirementLaw = false;
  for (const Violation &V : Vs)
    SawRetirementLaw |= V.Rule == "retirement-law";
  EXPECT_TRUE(SawRetirementLaw)
      << "the invariant audit must flag the surviving under-performer; "
         "violations were:\n"
      << formatViolations(Vs);
}

TEST_F(RetirementProbeTest, ProbeRunsAreDeterministic) {
  // A PreparedModule carries no mutable run state, so back-to-back runs
  // must agree bit-for-bit -- the invariant that lets this fixture share
  // one instance across cases and test binaries under `ctest -j`.
  TraceVM A(*PM, probeOptions(CacheFault::None));
  TraceVM B(*PM, probeOptions(CacheFault::None));
  RunStatus S1 = A.run().Status;
  RunStatus S2 = B.run().Status;
  EXPECT_EQ(S1, S2);
  EXPECT_EQ(A.machine().output(), B.machine().output());
  EXPECT_EQ(A.stats().digest(), B.stats().digest());
  EXPECT_EQ(A.stats().TracesRetired, B.stats().TracesRetired);
}

#endif // JTC_TELEMETRY

//===----------------------------------------------------------------------===//
// Minimizer
//===----------------------------------------------------------------------===//

TEST(MinimizerTest, ShrinksWhilePreservingAStructuralPredicate) {
  GenConfig GC;
  RandomProgramBuilder Gen(7, GC);
  Module M = Gen.build();
  // Cheap stand-in for "still fails": the program still prints something.
  auto StillFails = [](const Module &Cand) {
    Machine Mach(Cand);
    runInstructions(Mach, 20'000'000);
    return !Mach.output().empty();
  };
  ASSERT_TRUE(StillFails(M));
  MinimizerStats Stats;
  Module Min = minimizeModule(M, StillFails, 8, &Stats);
  EXPECT_TRUE(isValid(Min)) << formatErrors(verifyModule(Min));
  EXPECT_TRUE(StillFails(Min));
  EXPECT_LT(moduleSize(Min), moduleSize(M));
  EXPECT_GT(Stats.CandidatesAccepted, 0u);
  // The property needs one Iprint and a path to it; the reduced program
  // should be close to that skeleton.
  EXPECT_LE(moduleSize(Min), 10u);
}

TEST(MinimizerTest, TargetRemapSurvivesSwitchDeletion) {
  // A switch-heavy program reduced under a "still has a switch and still
  // runs clean" predicate: every intermediate candidate is verifier
  // checked, so a bad remap of switch targets would surface as a failed
  // reduction, not a corrupt module.
  Module M = testprog::switchProgram();
  auto StillFails = [](const Module &Cand) {
    for (const Method &Mth : Cand.Methods)
      for (const Instruction &I : Mth.Code)
        if (I.Op == Opcode::Tableswitch)
          return true;
    return false;
  };
  Module Min = minimizeModule(M, StillFails);
  EXPECT_TRUE(isValid(Min)) << formatErrors(verifyModule(Min));
  EXPECT_TRUE(StillFails(Min));
  EXPECT_LT(moduleSize(Min), moduleSize(M));
}

TEST(MinimizerTest, MinimizedFaultReproducerStillTriggersTheOracle) {
  // End to end: fuzz with an injected fault and minimization on; the
  // reduced module must still fail the faulty oracle and parse back from
  // its textual form.
  FuzzOptions Opts = faultCampaign(CacheFault::SkipInvalidation);
  Opts.Minimize = true;
  FuzzReport R = runFuzzer(Opts);
  ASSERT_FALSE(R.Failures.empty());
  const FuzzFailure &F = R.Failures[0];
  EXPECT_FALSE(F.Findings.empty());

  std::string Error;
  std::optional<Module> Parsed = parseModule(F.ModuleText, Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  EXPECT_TRUE(isValid(*Parsed));
  EXPECT_FALSE(runOracle(*Parsed, Opts.Oracle).Ok);
  // Replayed against a healthy cache, the reproducer runs clean: the bug
  // is in the cache, not the program.
  OracleConfig Healthy = Opts.Oracle;
  Healthy.Fault = CacheFault::None;
  EXPECT_TRUE(runOracle(*Parsed, Healthy).Ok);
}

//===----------------------------------------------------------------------===//
// Campaign loop
//===----------------------------------------------------------------------===//

TEST(FuzzerTest, CleanCampaignReportsAllIterations) {
  FuzzOptions Opts;
  Opts.Seed = 1234;
  Opts.Iterations = 60;
  Opts.Gen.Features.Traps = true;
  FuzzReport R = runFuzzer(Opts);
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.Iterations, 60u);
  EXPECT_EQ(R.CleanRuns + R.SkippedRuns, 60u);
  EXPECT_GT(R.Coverage.total(), 0u);
}

TEST(FuzzerTest, CampaignIsDeterministic) {
  FuzzOptions Opts;
  Opts.Seed = 77;
  Opts.Iterations = 20;
  FuzzReport A = runFuzzer(Opts), B = runFuzzer(Opts);
  EXPECT_EQ(A.CleanRuns, B.CleanRuns);
  EXPECT_EQ(A.Coverage.Counts, B.Coverage.Counts);
}

TEST(FuzzerTest, MaxFailuresStopsTheCampaignEarly) {
  FuzzOptions Opts = faultCampaign(CacheFault::SkipInvalidation);
  Opts.MaxFailures = 1;
  FuzzReport R = runFuzzer(Opts);
  ASSERT_EQ(R.Failures.size(), 1u);
  EXPECT_EQ(R.Iterations, R.Failures[0].Iteration + 1)
      << "the campaign must stop at the first failure";
}
