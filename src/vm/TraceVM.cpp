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

inline void TraceVM::ranTraceBlock([[maybe_unused]] uint32_t I,
                                   [[maybe_unused]] uint32_t &Committed) {
  VmStats &Stats = Engine.stats();
  ++Stats.BlocksExecuted;
#ifdef JTC_TELEMETRY
  if (Sampler.enabled() && Stats.BlocksExecuted >= Sampler.nextSampleAt())
    sampleInTrace(I, Committed);
#endif
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
  const uint64_t Budget = Options.maxInstructions();
  while (true) {
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
      break;
    }
    if (Stepper.instructions() >= Budget) {
      Engine.endRun();
      R.Status = RunStatus::BudgetExhausted;
      break;
    }

    BlockId Next = Stepper.currentBlock();
    if (Sink)
      Sink->onTransition(Cur, Next);
    // A transition that enters a trace runs it whole; the transition that
    // ends one run may enter the next trace.
    const Trace *T = Engine.transition(Cur, Next);
    while (T) {
      uint32_t Committed = 0;
      TraceRunResult TR = runTrace(*T, Committed);
      // A native run ends on a block boundary the budget may fall on.
      if (!TR.endsSession() && Stepper.instructions() >= Budget)
        TR.End = TraceRunEnd::BudgetExhausted;
      T = Engine.commitRun(TR, Committed, Sink);
      if (TR.endsSession()) {
        R.Status = TR.End == TraceRunEnd::Finished  ? RunStatus::Finished
                   : TR.End == TraceRunEnd::Trapped ? RunStatus::Trapped
                                                    : RunStatus::BudgetExhausted;
        goto done;
      }
    }
    Cur = Stepper.currentBlock();
  }

done:
  R.Trap = Mach.trap();
  Stats = currentStats();
  R.Instructions = Stats.Instructions;
  R.Dispatches = Stats.totalDispatches();
  if (Sink)
    Sink->onRunEnd(R, Stats);
  return R;
}

TraceRunResult TraceVM::runTrace(const Trace &T, uint32_t &Committed) {
  if (Jit) {
    // The loop only dispatches with budget left, so the subtraction cannot
    // underflow.
    if (std::optional<TraceRunResult> TR = Jit->run(
            T, Stepper, Options.maxInstructions() - Stepper.instructions())) {
      // Report the run block by block: the clock, due samples and the
      // sink's inner transitions see it as a block-stepped run. A sample
      // on the last block may complete the trace and free it, so T is
      // only read before that.
      [[maybe_unused]] const uint64_t Generation =
          Engine.traceCache().generation();
      for (uint32_t I = 1;; ++I) {
        ranTraceBlock(I, Committed);
        if (I == TR->BlocksRun)
          break;
        assert(Engine.traceCache().generation() == Generation &&
               "trace cache mutated inside a run");
        if (Sink)
          Sink->onTransition(T.Blocks[I - 1], T.Blocks[I]);
      }
      Stepper.resumeAt(TR->NextBlock);
      return *TR;
    }
  }
  return stepTrace(T, Committed);
}

TraceRunResult TraceVM::stepTrace(const Trace &T, uint32_t &Committed) {
  const uint32_t Len = static_cast<uint32_t>(T.Blocks.size());
  const uint64_t Budget = Options.maxInstructions();
  [[maybe_unused]] const uint64_t Generation = Engine.traceCache().generation();
  TraceRunResult TR;
  uint32_t I = 0; // trace blocks run
  while (true) {
    assert(Engine.traceCache().generation() == Generation &&
           "trace cache mutated inside a run");
    BlockStepper::StepStatus S = Stepper.step();
    TR.LastBlock = T.Blocks[I++];
    // A sample on the trace's last block completes the trace and may free
    // it: once I == Len nothing below reads T.
    ranTraceBlock(I, Committed);

    if (S != BlockStepper::StepStatus::Continue) {
      TR.End = S == BlockStepper::StepStatus::Finished ? TraceRunEnd::Finished
                                                       : TraceRunEnd::Trapped;
      break;
    }
    if (Stepper.instructions() >= Budget) {
      TR.End = TraceRunEnd::BudgetExhausted;
      break;
    }
    TR.NextBlock = Stepper.currentBlock();
    if (I == Len) {
      TR.End = TraceRunEnd::Completed;
      break;
    }
    if (TR.NextBlock != T.Blocks[I]) {
      TR.End = TraceRunEnd::Diverged;
      break;
    }
    if (Sink)
      Sink->onTransition(TR.LastBlock, TR.NextBlock);
  }
  TR.BlocksRun = I;
  return TR;
}

void TraceVM::sampleInTrace(uint32_t I, uint32_t &Committed) {
  Engine.executedInTrace(Committed, I);
  Committed = I;
  Sampler.sample(Engine.stats().BlocksExecuted, currentStats());
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
    S.TracesValidated = BS.TracesValidated;
    S.TraceValidationRejects = BS.ValidationRejects;
    S.TraceProofsReused = BS.ProofsReused;
    S.MemElisionSites = BS.MemElisionSites;
    S.MemChecksElided = BS.ChecksElided;
  }
  // Every trace entry runs exactly once, natively or block-stepped.
  S.TraceDispatchesInterp = S.TraceDispatches - S.TraceDispatchesJit;
  return S;
}
