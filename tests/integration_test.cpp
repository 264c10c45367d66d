//===- tests/integration_test.cpp - Whole-system runs ---------------------===//
///
/// End-to-end runs of the six workloads under the full TraceVM, checking
/// the cross-module invariants the paper's evaluation relies on.
///
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"

#include "interp/InstructionInterpreter.h"

#include <gtest/gtest.h>

using namespace jtc;

namespace {

/// Integration scale: ~1/20 of the benchmark default keeps the whole
/// suite fast while still exercising decay, signals and trace dispatch.
uint32_t integrationScale(const WorkloadInfo &W) {
  return std::max(1u, W.DefaultScale / 20);
}

VmOptions optionsWith(double Threshold, uint32_t Delay = 64) {
  return VmOptions().completionThreshold(Threshold).startStateDelay(Delay);
}

} // namespace

TEST(IntegrationTest, AllWorkloadsAllThresholdsSatisfyInvariants) {
  for (const WorkloadInfo &W : allWorkloads()) {
    for (double T : standardThresholds()) {
      VmStats S = runWorkload(W, optionsWith(T), integrationScale(W));
      SCOPED_TRACE(std::string(W.Name) + " @ " + std::to_string(T));
      EXPECT_GT(S.Instructions, 0u);
      EXPECT_EQ(S.BlocksExecuted, S.BlockDispatches + S.BlocksInTraces);
      EXPECT_LE(S.TracesCompleted, S.TraceDispatches);
      EXPECT_LE(S.InstructionsInCompletedTraces, S.InstructionsInTraces);
      EXPECT_LE(S.traceCoverage(), 1.0);
      EXPECT_GE(S.completedCoverage(), 0.0);
      EXPECT_LE(S.completedCoverage(), S.traceCoverage() + 1e-12);
      if (S.TraceDispatches > 1000) {
        EXPECT_GE(S.completionRate(), 0.85)
            << "traces built above the threshold should mostly complete";
      }
    }
  }
}

TEST(IntegrationTest, TraceDispatchPreservesWorkloadSemantics) {
  for (const WorkloadInfo &W : allWorkloads()) {
    uint32_t Scale = std::max(1u, W.DefaultScale / 100);
    Module M = W.Build(Scale);
    Machine Plain(M);
    RunResult R1 = runInstructions(Plain, 100000000);
    PreparedModule PM(M);
    TraceVM VM(PM, optionsWith(0.97));
    RunResult R2 = VM.run();
    EXPECT_EQ(R1.Status, R2.Status) << W.Name;
    EXPECT_EQ(Plain.output(), VM.machine().output()) << W.Name;
    EXPECT_EQ(R1.Instructions, R2.Instructions) << W.Name;
  }
}

TEST(IntegrationTest, RunsAreReproducible) {
  for (const WorkloadInfo &W : allWorkloads()) {
    VmStats A = runWorkload(W, optionsWith(0.97), integrationScale(W));
    VmStats B = runWorkload(W, optionsWith(0.97), integrationScale(W));
    EXPECT_EQ(A.Instructions, B.Instructions) << W.Name;
    EXPECT_EQ(A.Signals, B.Signals) << W.Name;
    EXPECT_EQ(A.TracesConstructed, B.TracesConstructed) << W.Name;
    EXPECT_EQ(A.TracesCompleted, B.TracesCompleted) << W.Name;
  }
}

TEST(IntegrationTest, ScimarkIsTheMostRegularMember) {
  // The paper's headline ordering: scimark's regular kernels give the
  // highest coverage; javac's parser gives the lowest.
  VmStats Sci = runWorkload(*findWorkload("scimark"), optionsWith(0.97),
                            integrationScale(*findWorkload("scimark")));
  VmStats Jav = runWorkload(*findWorkload("javac"), optionsWith(0.97),
                            integrationScale(*findWorkload("javac")));
  EXPECT_GT(Sci.completedCoverage(), Jav.completedCoverage());
  EXPECT_GT(Jav.Signals, Sci.Signals)
      << "the irregular benchmark must generate more state-change signals";
}

TEST(IntegrationTest, LargerDelayFiltersTraceEvents) {
  // Table V's trend on one workload: raising the start-state delay
  // lengthens the interval between trace events.
  const WorkloadInfo &W = *findWorkload("compress");
  VmStats D1 = runWorkload(W, optionsWith(0.97, 1), integrationScale(W));
  VmStats D4096 =
      runWorkload(W, optionsWith(0.97, 4096), integrationScale(W));
  EXPECT_GT(D4096.dispatchesPerTraceEvent(), D1.dispatchesPerTraceEvent());
}

TEST(IntegrationTest, ProfilerOverheadMeasurementIsSane) {
  const WorkloadInfo &W = *findWorkload("scimark");
  // Best of five: the hook adds only 10-20% to scimark's few-millisecond
  // run, so one preempted plain run per side could invert the ratio.
  OverheadSample S =
      measureProfilerOverhead(W, integrationScale(W), /*Repeats=*/5);
  EXPECT_GT(S.Dispatches, 0u);
  EXPECT_GT(S.Instructions, S.Dispatches);
  EXPECT_GT(S.PlainSeconds, 0.0);
  EXPECT_GT(S.ProfiledSeconds, 0.0);
  // The profiled interpreter cannot plausibly be faster by more than
  // measurement noise, nor absurdly slower.
  EXPECT_GT(S.ProfiledSeconds, S.PlainSeconds * 0.7);
  EXPECT_LT(S.ProfiledSeconds, S.PlainSeconds * 20.0);
}
