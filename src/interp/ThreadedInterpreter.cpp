//===- interp/ThreadedInterpreter.cpp -------------------------------------===//

#include "interp/ThreadedInterpreter.h"

#include "interp/BlockStepper.h"

using namespace jtc;

template <typename HookT>
static ThreadedResult drive(const PreparedModule &PM, HookT &&Hook,
                            uint64_t MaxInstructions) {
  Machine Mach(PM.module());
  BlockStepper Stepper(PM, Mach);
  RunResult R = runBlocksWithHook(Stepper, Hook, MaxInstructions);
  ThreadedResult T;
  T.Status = R.Status;
  T.Trap = R.Trap;
  T.Instructions = R.Instructions;
  T.BlockDispatches = R.Dispatches;
  T.Output = Mach.output();
  return T;
}

ThreadedResult ThreadedProgram::run(uint64_t MaxInstructions) const {
  return drive(*PM, [](BlockId) {}, MaxInstructions);
}

ThreadedResult ThreadedProgram::runProfiled(BranchCorrelationGraph &Graph,
                                            uint64_t MaxInstructions) const {
  ThreadedResult R = drive(
      *PM, [&Graph](BlockId B) { Graph.onBlockDispatch(B); }, MaxInstructions);
  Graph.foldAll();
  return R;
}
