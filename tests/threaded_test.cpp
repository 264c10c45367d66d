//===- tests/threaded_test.cpp - Direct-threaded engine -------------------===//

#include "interp/ThreadedInterpreter.h"

#include "TestPrograms.h"
#include "interp/BlockStepper.h"
#include "interp/InstructionInterpreter.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace jtc;

namespace {

/// Runs \p M under the reference instruction interpreter and the threaded
/// engine and checks full agreement: status, trap, outputs, instruction
/// count, and block-dispatch count (vs. the block stepper).
void expectAgreement(const Module &M, uint64_t Budget = ~0ull) {
  Machine Ref(M);
  RunResult R1 = runInstructions(Ref, Budget);

  PreparedModule PM(M);
  ThreadedProgram TP(PM);
  ThreadedResult R2 = TP.run(Budget);

  EXPECT_EQ(static_cast<int>(R1.Status), static_cast<int>(R2.Status));
  EXPECT_EQ(R1.Trap, R2.Trap);
  EXPECT_EQ(Ref.output(), R2.Output);
  if (R1.Status == RunStatus::Finished)
    EXPECT_EQ(R1.Instructions, R2.Instructions);

  // Block dispatches match the Fig. 2 block stepper exactly.
  if (R1.Status == RunStatus::Finished) {
    Machine M2(M);
    BlockStepper Stepper(PM, M2);
    RunResult R3 = runBlocks(Stepper, Budget);
    EXPECT_EQ(R3.Dispatches, R2.BlockDispatches);
  }
}

} // namespace

TEST(ThreadedTest, HandBuiltPrograms) {
  expectAgreement(testprog::countingLoop(1000));
  expectAgreement(testprog::recursiveFactorial(10));
  expectAgreement(testprog::virtualDispatch());
  expectAgreement(testprog::switchProgram());
  expectAgreement(testprog::arraySquares(32));
  expectAgreement(testprog::hotLoop(5000));
}

TEST(ThreadedTest, TrapsAgree) {
  expectAgreement(testprog::divideByZero());
  // Runaway recursion traps as stack overflow.
  Module M = testprog::recursiveFactorial(5);
  M.Methods[1].Code[0] = Instruction(Opcode::Iconst, 1 << 28);
  PreparedModule PM(M);
  ThreadedProgram TP(PM);
  ThreadedResult R = TP.run();
  EXPECT_EQ(R.Status, RunStatus::Trapped);
  EXPECT_EQ(R.Trap, TrapKind::StackOverflow);
}

TEST(ThreadedTest, BudgetStops) {
  Module M = testprog::countingLoop(100000000);
  PreparedModule PM(M);
  ThreadedProgram TP(PM);
  ThreadedResult R = TP.run(/*MaxInstructions=*/10000);
  EXPECT_EQ(R.Status, RunStatus::BudgetExhausted);
  EXPECT_GE(R.Instructions, 10000u);
  // The budget is checked at block boundaries; overshoot is bounded by
  // one block.
  EXPECT_LT(R.Instructions, 10200u);
}

TEST(ThreadedTest, RandomProgramsAgree) {
  for (uint64_t Seed = 2000; Seed < 2050; ++Seed) {
    testprog::RandomProgramBuilder Gen(Seed);
    Module M = Gen.build();
    SCOPED_TRACE("seed " + std::to_string(Seed));
    expectAgreement(M);
  }
}

TEST(ThreadedTest, WorkloadsAgree) {
  for (const WorkloadInfo &W : allWorkloads()) {
    SCOPED_TRACE(W.Name);
    expectAgreement(W.Build(std::max(1u, W.DefaultScale / 100)));
  }
}

TEST(ThreadedTest, ProfiledRunBuildsTheSameGraphAsTheStepper) {
  Module M = testprog::hotLoop(30000);
  PreparedModule PM(M);

  // Reference: block stepper feeding the graph through the same hook.
  ProfilerConfig PC;
  BranchCorrelationGraph RefGraph(PC);
  Machine Mach(M);
  BlockStepper Stepper(PM, Mach);
  runBlocksWithHook(Stepper,
                    [&RefGraph](BlockId B) { RefGraph.onBlockDispatch(B); });

  BranchCorrelationGraph Graph(PC);
  ThreadedProgram TP(PM);
  ThreadedResult R = TP.runProfiled(Graph);
  EXPECT_EQ(R.Status, RunStatus::Finished);

  ASSERT_EQ(Graph.numNodes(), RefGraph.numNodes());
  EXPECT_EQ(Graph.stats().Hooks, RefGraph.stats().Hooks);
  EXPECT_EQ(Graph.stats().DecayPasses, RefGraph.stats().DecayPasses);
  for (NodeId N = 0; N < Graph.numNodes(); ++N) {
    EXPECT_EQ(Graph.node(N).from(), RefGraph.node(N).from());
    EXPECT_EQ(Graph.node(N).to(), RefGraph.node(N).to());
    EXPECT_EQ(Graph.node(N).executions(), RefGraph.node(N).executions());
    EXPECT_EQ(Graph.node(N).state(), RefGraph.node(N).state());
    std::span<const Correlation> A = Graph.node(N).correlations();
    std::span<const Correlation> B = RefGraph.node(N).correlations();
    ASSERT_EQ(A.size(), B.size());
    for (size_t I = 0; I < A.size(); ++I) {
      EXPECT_EQ(A[I].Succ, B[I].Succ);
      EXPECT_EQ(A[I].Count.value(), B[I].Count.value());
      EXPECT_EQ(A[I].Target, B[I].Target);
    }
  }
}

TEST(ThreadedTest, CodeSizeIncludesSyntheticDispatches) {
  // The hot loop has at least one fallthrough block boundary (the join
  // after the if/else), so the flat code exceeds the instruction count.
  Module M = testprog::hotLoop(10);
  size_t RawInstructions = 0;
  for (const Method &Mth : M.Methods)
    RawInstructions += Mth.Code.size();
  PreparedModule PM(M);
  ThreadedProgram TP(PM);
  EXPECT_GT(TP.codeSize(), RawInstructions);
}
