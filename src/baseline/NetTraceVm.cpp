//===- baseline/NetTraceVm.cpp --------------------------------------------===//

#include "baseline/NetTraceVm.h"

using namespace jtc;

NetTraceVm::NetTraceVm(const PreparedModule &PM, NetConfig Config)
    : PM(&PM), Config(Config), Mach(PM.module()), Stepper(PM, Mach) {}

bool NetTraceVm::isBackward(BlockId From, BlockId To) const {
  const BasicBlock &F = PM->block(From);
  const BasicBlock &T = PM->block(To);
  return F.MethodId == T.MethodId && T.StartPc <= F.StartPc;
}

void NetTraceVm::flushCache() {
  HeadToTrace.clear();
  ++Net.Flushes;
  WindowCreations = 0;
  WindowStart = Stats.BlocksExecuted;
}

void NetTraceVm::finishRecording(bool Install) {
  Recording = false;
  if (Install && Record.size() >= 2) {
    NetTrace T;
    T.Head = Record[0];
    T.Blocks = std::move(Record);
    for (BlockId B : T.Blocks)
      T.InstrCount += PM->blockSize(B);
    HeadToTrace[T.Head] = static_cast<uint32_t>(Traces.size());
    Traces.push_back(std::move(T));
    ++Stats.TracesConstructed;

    // Dynamo's cache-pressure heuristic: a burst of creations flushes
    // the whole cache (contrast with the BCG's targeted rebuilds).
    if (Config.FlushLimit != 0 && ++WindowCreations > Config.FlushLimit)
      flushCache();
  }
  Record.clear();
}

void NetTraceVm::transition(BlockId Cur, BlockId Next) {
  if (ActiveTrace >= 0) {
    NetTrace &T = Traces[static_cast<uint32_t>(ActiveTrace)];
    if (Next == T.Blocks[TracePos + 1]) {
      ++TracePos;
      return;
    }
    // Partial exit: the assumed tail was not executed.
    ActiveTrace = -1;
    TracePos = 0;
    PendingBump = true; // side exits are hot-head candidates too
  }

  // Roll the creation-rate window.
  if (Stats.BlocksExecuted - WindowStart >= Config.FlushWindow) {
    WindowStart = Stats.BlocksExecuted;
    WindowCreations = 0;
  }

  bool Backward = isBackward(Cur, Next);

  if (Recording) {
    // The next executing tail ends at a backward-taken transition, an
    // existing trace head, or the length cap.
    if (Record.size() >= Config.MaxTraceBlocks || Backward ||
        HeadToTrace.count(Next)) {
      finishRecording(/*Install=*/true);
      // Fall through: this transition is processed normally (it may
      // immediately enter the trace just recorded).
    } else {
      Record.push_back(Next);
      ++Stats.BlockDispatches;
      return;
    }
  }

  // Trace entry: NET dispatches on reaching a hot head.
  auto TraceIt = HeadToTrace.find(Next);
  if (TraceIt != HeadToTrace.end()) {
    ActiveTrace = static_cast<int32_t>(TraceIt->second);
    TracePos = 0;
    ++Stats.TraceDispatches;
    ++Traces[ActiveTrace].Entered;
    PendingBump = false;
    return;
  }
  ++Stats.BlockDispatches;

  // Hot-head counting: targets of backward transitions and the blocks
  // reached right after a trace exit.
  if (Backward || PendingBump) {
    uint32_t &C = HeadCounter[Next];
    if (C == 0)
      ++Net.HeadCandidates;
    if (++C >= Config.HotThreshold) {
      HeadCounter.erase(Next);
      Recording = true;
      Record.assign(1, Next);
      ++Net.Recordings;
    }
  }
  PendingBump = false;
}

RunResult NetTraceVm::run() {
  assert(!Ran && "NetTraceVm::run is single-shot");
  Ran = true;

  RunResult R;
  Stepper.start();
  BlockId Cur = Stepper.currentBlock();
  ++Stats.BlockDispatches;

  while (true) {
    BlockStepper::StepStatus S = Stepper.step(); // executes Cur
    ++Stats.BlocksExecuted;
    if (ActiveTrace >= 0) {
      NetTrace &T = Traces[static_cast<uint32_t>(ActiveTrace)];
      ++Stats.BlocksInTraces;
      Stats.InstructionsInTraces += PM->blockSize(Cur);
      if (TracePos + 1 == T.Blocks.size()) {
        ++Stats.TracesCompleted;
        ++T.Completed;
        Stats.BlocksInCompletedTraces += T.Blocks.size();
        Stats.InstructionsInCompletedTraces += T.InstrCount;
        ActiveTrace = -1;
        TracePos = 0;
        PendingBump = true; // the block after a trace is a head candidate
      }
    }

    if (S != BlockStepper::StepStatus::Continue) {
      if (Recording)
        finishRecording(/*Install=*/false);
      R.Status = S == BlockStepper::StepStatus::Finished ? RunStatus::Finished
                                                         : RunStatus::Trapped;
      R.Trap = Mach.trap();
      break;
    }
    if (Stepper.instructions() >= Config.MaxInstructions) {
      if (Recording)
        finishRecording(/*Install=*/false);
      R.Status = RunStatus::BudgetExhausted;
      break;
    }

    BlockId Next = Stepper.currentBlock();
    transition(Cur, Next);
    Cur = Next;
  }

  Stats.Instructions = Stepper.instructions();
  Stats.LiveTraces = HeadToTrace.size();
  R.Instructions = Stats.Instructions;
  R.Dispatches = Stats.totalDispatches();
  return R;
}
