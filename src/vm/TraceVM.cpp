//===- vm/TraceVM.cpp -----------------------------------------------------===//

#include "vm/TraceVM.h"

#include <cassert>

using namespace jtc;

TraceVM::TraceVM(const PreparedModule &PM, VmOptions Options)
    : PM(&PM), Options(Options), Mach(PM.module()), Stepper(PM, Mach),
      Engine(PM, this->Options) {
  // Auto resolves here: Jit when the host can run template code. Jit on
  // an unsupported host still gets a native tier, which records a
  // HostUnsupported fallback per promotion and never runs a trace.
  backend::BackendKind Kind = this->Options.backend();
  backend::BackendConfig Config = this->Options.backendConfig();
  if (Kind == backend::BackendKind::Auto)
    Kind = backend::jitSupportedHost() && !Config.SimulateUnsupportedHost
               ? backend::BackendKind::Jit
               : backend::BackendKind::Interp;
  if (Kind == backend::BackendKind::Jit)
    Jit = std::make_unique<backend::JitBackend>(PM, Config);
#ifdef JTC_TELEMETRY
  if (this->Options.telemetry()) {
    Ring = EventRing(this->Options.telemetryCapacity(),
                     &Engine.stats().BlocksExecuted);
    Telem = &Ring;
    Engine.setTelemetry(&Ring);
    if (Jit)
      Jit->setTelemetry(&Ring);
    Sampler = PhaseSampler<VmStats>(this->Options.sampleInterval());
  }
#endif
}

void TraceVM::importSeed(const VmSeed &Seed) {
  assert(!Ran && "importSeed must precede run()");
  Engine.importSeed(Seed);
}

RunResult TraceVM::run() {
  // Single-shot contract: executing again over the dirty machine, graph
  // and cache state would silently produce garbage, so a reuse surfaces
  // as a distinct trap (and an assertion failure in checked builds).
  if (Ran) {
    assert(!Ran && "TraceVM::run is single-shot; construct a fresh VM");
    RunResult R;
    R.Status = RunStatus::Trapped;
    R.Trap = TrapKind::VmReuse;
    return R;
  }
  Ran = true;

  RunResult R;
  Stepper.start();
  BlockId Cur = Stepper.currentBlock();

  Engine.begin(Cur);
  if (Sink)
    Sink->onRunStart(Cur);

  VmStats &Stats = Engine.stats();
  // Cursor over the active trace's check-elision facts (pc-ordered within
  // ascending block index), reset on every trace entry.
  size_t ElideCursor = 0;
  while (true) {
    if (const Trace *T = Engine.activeTrace()) {
      const uint32_t Pos = Engine.tracePos();
      if (Pos == 0) {
        // A trace entry: the native tier, if any, may run the whole trace.
        // Otherwise the trace's blocks step below like any other block.
        // The loop only gets here with budget left, so the subtraction
        // cannot underflow.
        if (Jit) {
          const uint64_t Left =
              Options.maxInstructions() - Stepper.instructions();
          if (std::optional<backend::TraceRunResult> TR =
                  Jit->run(*T, Stepper, Left)) {
            if (!replayNativeRun(*T, *TR, R))
              break;
            Cur = Stepper.currentBlock();
            continue;
          }
        }
        ElideCursor = 0;
      }
      // Arm this block's slice of the elision facts. Their path assumption
      // holds by construction: trace block Pos only executes after blocks
      // 0..Pos-1 matched the recorded sequence.
      const std::vector<MemElision> &EF = T->MemElisions;
      const size_t Begin = ElideCursor;
      while (ElideCursor < EF.size() && EF[ElideCursor].BlockIndex == Pos)
        ++ElideCursor;
      if (ElideCursor != Begin)
        Stepper.setElisions(EF.data() + Begin, ElideCursor - Begin);
    }

    BlockStepper::StepStatus S = Stepper.step(); // executes Cur
    Engine.executed(Cur);
#ifdef JTC_TELEMETRY
    if (Sampler.enabled() && Stats.BlocksExecuted >= Sampler.nextSampleAt())
      Sampler.sample(Stats.BlocksExecuted, currentStats());
#endif

    if (S != BlockStepper::StepStatus::Continue) {
      Engine.endRun();
      R.Status = S == BlockStepper::StepStatus::Finished ? RunStatus::Finished
                                                         : RunStatus::Trapped;
      R.Trap = Mach.trap();
      break;
    }
    if (Stepper.instructions() >= Options.maxInstructions()) {
      Engine.endRun();
      R.Status = RunStatus::BudgetExhausted;
      break;
    }

    BlockId Next = Stepper.currentBlock();
    if (Sink)
      Sink->onTransition(Cur, Next);
    Engine.transition(Cur, Next);
    Cur = Next;
  }

  Stats = currentStats();
  R.Instructions = Stats.Instructions;
  R.Dispatches = Stats.totalDispatches();
  if (Sink)
    Sink->onRunEnd(R, Stats);
  return R;
}

bool TraceVM::replayNativeRun(const Trace &T,
                              const backend::TraceRunResult &TR,
                              RunResult &R) {
  assert(TR.BlocksRun >= 1 && "a dispatched trace executes at least a block");

  // Replay the summary through the engine in exactly the live loop's
  // per-block order (executed, sampler, status, budget, sink, transition)
  // so every BlocksExecuted-stamped clock and the btrace stream are
  // bit-identical to a block-stepped run. The trace pointer stays valid
  // throughout: the cache mutates only inside the *final* engine call of
  // this replay (leaveTrace inside the last executed(), transition() or
  // endRun()), and every read of T happens before it. Checked builds prove
  // it with the cache's mutation generation.
  VmStats &Stats = Engine.stats();
  (void)Stats;
  const uint64_t Generation = Engine.traceCache().generation();
  (void)Generation;
  for (uint32_t I = 0; I + 1 < TR.BlocksRun; ++I) {
    BlockId B = T.Blocks[I];
    BlockId Next = T.Blocks[I + 1];
    Engine.executed(B);
#ifdef JTC_TELEMETRY
    if (Sampler.enabled() && Stats.BlocksExecuted >= Sampler.nextSampleAt())
      Sampler.sample(Stats.BlocksExecuted, currentStats());
#endif
    if (Sink)
      Sink->onTransition(B, Next);
    Engine.transition(B, Next);
    assert(Engine.traceCache().generation() == Generation &&
           "trace cache mutated before the final replay step");
  }

  BlockId Last = T.Blocks[TR.BlocksRun - 1];
  Engine.executed(Last); // completes the trace when TR.End == Completed
#ifdef JTC_TELEMETRY
  if (Sampler.enabled() && Stats.BlocksExecuted >= Sampler.nextSampleAt())
    Sampler.sample(Stats.BlocksExecuted, currentStats());
#endif

  switch (TR.End) {
  case backend::TraceRunEnd::Finished:
  case backend::TraceRunEnd::Trapped:
    Engine.endRun();
    R.Status = TR.End == backend::TraceRunEnd::Finished ? RunStatus::Finished
                                                        : RunStatus::Trapped;
    R.Trap = Mach.trap();
    return false;
  case backend::TraceRunEnd::Completed:
  case backend::TraceRunEnd::Diverged:
    // The live loop checks the budget after executing a block and before
    // its outgoing transition; a run that ends exactly on the budget at a
    // completion/divergence boundary must end the same way here.
    if (Stepper.instructions() >= Options.maxInstructions()) {
      Engine.endRun();
      R.Status = RunStatus::BudgetExhausted;
      return false;
    }
    if (Sink)
      Sink->onTransition(Last, TR.NextBlock);
    Engine.transition(Last, TR.NextBlock);
    Stepper.resumeAt(TR.NextBlock);
    return true;
  }
  return true; // unreachable
}

VmStats TraceVM::currentStats() const {
  VmStats S = Engine.snapshotStats(Stepper.instructions());
  S.EventsDropped = Ring.dropped();
  if (Jit) {
    const backend::BackendStats &BS = Jit->stats();
    S.TracesJitCompiled = BS.TracesCompiled;
    S.TraceCompileFallbacks = BS.CompileFallbacks;
    S.TraceDispatchesJit = BS.CompiledDispatches;
    S.JitCodeBytes = BS.CodeBytes;
  }
  // Every trace entry runs exactly once, natively or block-stepped.
  S.TraceDispatchesInterp = S.TraceDispatches - S.TraceDispatchesJit;
  S.MemChecksElided = Stepper.checksElided();
  return S;
}
